// Differential test of the brick <-> cell bridge: the row-granular
// cells_to_bricks / bricks_to_cells against a per-cell reference loop that
// resolves every cell through brick_at on its own. Covers unaligned boxes
// (lo negative inside the ghost frame), anisotropic bricks, boxes reaching
// past the ghost frame, D = 2..4, 1 and 3 fields, heap and memfd storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/layout.h"

namespace brickx {
namespace {

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

// Brick and element index of cell `c` (kNoBrick outside the bricks).
template <int D>
std::pair<std::int32_t, std::int64_t> locate(const BrickDecomp<D>& dec,
                                             const Vec<D>& c) {
  const Vec<D>& B = dec.brick_dims();
  Vec<D> g, w;
  for (int a = 0; a < D; ++a) {
    g[a] = floor_div(c[a], B[a]);
    w[a] = c[a] - g[a] * B[a];
  }
  return {dec.brick_at(g), linearize(w, B)};
}

template <int D>
void ref_cells_to_bricks(const BrickDecomp<D>& dec, const CellArray<D>& src,
                         BrickStorage& storage, int field) {
  const std::int64_t elems = dec.elements_per_brick();
  for_each(src.box(), [&](const Vec<D>& c) {
    const auto [b, w] = locate(dec, c);
    if (b == BrickInfo<D>::kNoBrick) return;
    storage.brick(b)[field * elems + w] = src.at(c);
  });
}

template <int D>
bool ref_bricks_to_cells(const BrickDecomp<D>& dec,
                         const BrickStorage& storage, int field,
                         CellArray<D>& dst) {
  const std::int64_t elems = dec.elements_per_brick();
  bool inside = true;
  for_each(dst.box(), [&](const Vec<D>& c) {
    const auto [b, w] = locate(dec, c);
    if (b == BrickInfo<D>::kNoBrick) {
      inside = false;
      return;
    }
    dst.at(c) = storage.brick(b)[field * elems + w];
  });
  return inside;
}

// Distinct, position-dependent values (never equal to the prefill).
template <int D>
double cell_value(const Vec<D>& c, int field) {
  double v = 1000.0 * (field + 1);
  for (int a = 0; a < D; ++a) v = v * 64.0 + static_cast<double>(c[a] + 32);
  return v;
}

void prefill(BrickStorage& s, double base) {
  const std::int64_t n = s.elements_per_brick() * s.fields();
  for (std::int64_t b = 0; b < s.brick_count(); ++b)
    for (std::int64_t i = 0; i < n; ++i)
      s.brick(b)[i] = base - static_cast<double>(b * n + i);
}

bool same_payload(const BrickStorage& a, const BrickStorage& b) {
  const std::size_t n = static_cast<std::size_t>(a.elements_per_brick()) *
                        static_cast<std::size_t>(a.fields()) * sizeof(double);
  if (a.brick_count() != b.brick_count()) return false;
  for (std::int64_t i = 0; i < a.brick_count(); ++i)
    if (std::memcmp(a.brick(i), b.brick(i), n) != 0) return false;
  return true;
}

template <int D>
BrickStorage make_storage(const BrickDecomp<D>& dec, int fields, bool mmap) {
  return mmap ? dec.mmap_alloc(fields) : dec.allocate(fields);
}

// Whether `box` stays inside the ghost frame [-ghost, domain + ghost).
template <int D>
bool inside_frame(const BrickDecomp<D>& dec, const Box<D>& box) {
  for (int a = 0; a < D; ++a)
    if (box.lo[a] < -dec.ghost_width() ||
        box.hi[a] > dec.domain()[a] + dec.ghost_width())
      return false;
  return true;
}

template <int D>
void check_bridge(const BrickDecomp<D>& dec, int fields, bool mmap,
                  const std::vector<Box<D>>& boxes) {
  for (const Box<D>& box : boxes) {
    SCOPED_TRACE(testing::Message()
                 << "box lo " << box.lo << " hi " << box.hi << " fields "
                 << fields << (mmap ? " memfd" : " heap"));
    // In: every field, onto identically prefilled storages.
    BrickStorage got = make_storage(dec, fields, mmap);
    BrickStorage want = make_storage(dec, fields, mmap);
    prefill(got, -1.0);
    prefill(want, -1.0);
    for (int f = 0; f < fields; ++f) {
      CellArray<D> src(box);
      for_each(box, [&](const Vec<D>& c) { src.at(c) = cell_value(c, f); });
      cells_to_bricks(dec, src, got, f);
      ref_cells_to_bricks(dec, src, want, f);
    }
    EXPECT_TRUE(same_payload(got, want));

    // Out: every field, from a storage holding distinct values.
    for (int f = 0; f < fields; ++f) {
      CellArray<D> out(box), ref(box);
      for (auto& v : out.raw()) v = -7.0;
      for (auto& v : ref.raw()) v = -7.0;
      const bool inside = ref_bricks_to_cells(dec, want, f, ref);
      EXPECT_EQ(inside, inside_frame(dec, box));
      if (inside) {
        bricks_to_cells(dec, want, f, out);
        EXPECT_EQ(std::memcmp(out.raw().data(), ref.raw().data(),
                              out.raw().size() * sizeof(double)),
                  0);
      } else {
        EXPECT_THROW(bricks_to_cells(dec, want, f, out), Error);
      }
    }
  }
}

// Boxes over a subdomain of extent `dom` with ghost width `g`: the full
// frame, unaligned boxes with negative lo inside the frame, 1-wide slabs,
// and boxes past the frame on the low and high sides.
template <int D>
std::vector<Box<D>> boxes_for(const Vec<D>& dom, std::int64_t g) {
  std::vector<Box<D>> out;
  Box<D> frame{Vec<D>::fill(-g), dom + Vec<D>::fill(g)};
  out.push_back(frame);
  Box<D> unaligned;
  for (int a = 0; a < D; ++a) {
    unaligned.lo[a] = -g + 1 + a;
    unaligned.hi[a] = dom[a] + g - 3 + a % 2;
  }
  out.push_back(unaligned);
  Box<D> inner;
  for (int a = 0; a < D; ++a) {
    inner.lo[a] = -3 + a;
    inner.hi[a] = dom[a] / 2 + 1 + a;
  }
  out.push_back(inner);
  Box<D> thin = frame;  // 1 cell wide along axis 0, unaligned
  thin.lo[0] = -g + 3;
  thin.hi[0] = thin.lo[0] + 1;
  out.push_back(thin);
  Box<D> flat = unaligned;  // 1 cell wide along the last axis
  flat.hi[D - 1] = flat.lo[D - 1] + 1;
  out.push_back(flat);
  Box<D> past_low = unaligned;
  past_low.lo[0] = -g - 3;
  out.push_back(past_low);
  Box<D> past_high = unaligned;
  past_high.hi[D - 1] = dom[D - 1] + g + 2;
  out.push_back(past_high);
  return out;
}

template <int D>
void sweep(const Vec<D>& dom, std::int64_t g, const Vec<D>& bdims) {
  const BrickDecomp<D> dec(dom, g, bdims, lexicographic_layout(D));
  const auto boxes = boxes_for(dom, g);
  for (int fields : {1, 3})
    for (bool mmap : {false, true}) check_bridge(dec, fields, mmap, boxes);
}

TEST(CellBridge, RowGranularMatchesPerCellReference2D) {
  sweep<2>({16, 24}, 8, {8, 4});
  sweep<2>({12, 12}, 4, {4, 4});
}

TEST(CellBridge, RowGranularMatchesPerCellReference3D) {
  sweep<3>({16, 16, 24}, 8, {8, 4, 2});
  sweep<3>({16, 16, 16}, 4, {4, 4, 4});
}

TEST(CellBridge, RowGranularMatchesPerCellReference4D) {
  sweep<4>({8, 8, 8, 8}, 4, {4, 2, 2, 2});
}

TEST(CellBridge, EmptyBoxTouchesNothing) {
  const BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
  BrickStorage s = dec.allocate(1);
  prefill(s, -1.0);
  BrickStorage before = dec.allocate(1);
  prefill(before, -1.0);
  CellArray<3> empty(Box<3>{{2, 2, 2}, {2, 9, 9}});
  cells_to_bricks(dec, empty, s, 0);
  bricks_to_cells(dec, s, 0, empty);
  EXPECT_TRUE(same_payload(s, before));
}

}  // namespace
}  // namespace brickx
