#include "core/cell_array.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace brickx {

namespace {
// Floor division/modulo for possibly-negative cell coordinates.
inline std::int64_t fdiv(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

// Walk `box` row by row, splitting each axis-0 row at brick boundaries, and
// call `f(b, w, c, n)` once per segment: brick `b` (kNoBrick when the
// segment's brick is not allocated), the segment's element offset `w`
// inside one field of that brick, its first cell `c` and its length `n`.
// A segment is contiguous on both sides: n cells of the lexicographic row
// and n elements of one axis-0 row of the brick.
template <int D, typename F>
void for_each_brick_segment(const BrickDecomp<D>& dec, const Box<D>& box,
                            F&& f) {
  const Vec<D>& B = dec.brick_dims();
  for_each_row(box, [&](const Vec<D>& lo, std::int64_t len) {
    Vec<D> g, w;
    for (int a = 0; a < D; ++a) {
      g[a] = fdiv(lo[a], B[a]);
      w[a] = lo[a] - g[a] * B[a];
    }
    // Only the first segment of a row can start inside a brick; the rest
    // start at the next brick's w[0] == 0.
    const std::int64_t row_off = linearize(w, B) - w[0];
    Vec<D> c = lo;
    const std::int64_t end = lo[0] + len;
    while (c[0] < end) {
      const std::int64_t n = std::min(B[0] - w[0], end - c[0]);
      f(dec.brick_at(g), row_off + w[0], static_cast<const Vec<D>&>(c), n);
      c[0] += n;
      ++g[0];
      w[0] = 0;
    }
  });
}
}  // namespace

template <int D>
void cells_to_bricks(const BrickDecomp<D>& dec, const CellArray<D>& src,
                     BrickStorage& storage, int field) {
  const std::int64_t elems = dec.elements_per_brick();
  BX_CHECK(field >= 0 && field < storage.fields(), "field out of range");
  for_each_brick_segment(
      dec, src.box(),
      [&](std::int32_t b, std::int64_t w, const Vec<D>& c, std::int64_t n) {
        if (b == BrickInfo<D>::kNoBrick) return;
        std::memcpy(storage.brick(b) + field * elems + w, src.row(c),
                    static_cast<std::size_t>(n) * sizeof(double));
      });
}

template <int D>
void bricks_to_cells(const BrickDecomp<D>& dec, const BrickStorage& storage,
                     int field, CellArray<D>& dst) {
  const std::int64_t elems = dec.elements_per_brick();
  BX_CHECK(field >= 0 && field < storage.fields(), "field out of range");
  for_each_brick_segment(
      dec, dst.box(),
      [&](std::int32_t b, std::int64_t w, const Vec<D>& c, std::int64_t n) {
        BX_CHECK(b != BrickInfo<D>::kNoBrick,
                 "destination box reaches outside the allocated bricks");
        std::memcpy(dst.row(c), storage.brick(b) + field * elems + w,
                    static_cast<std::size_t>(n) * sizeof(double));
      });
}

template void cells_to_bricks<2>(const BrickDecomp<2>&, const CellArray<2>&,
                                 BrickStorage&, int);
template void cells_to_bricks<3>(const BrickDecomp<3>&, const CellArray<3>&,
                                 BrickStorage&, int);
template void cells_to_bricks<4>(const BrickDecomp<4>&, const CellArray<4>&,
                                 BrickStorage&, int);
template void bricks_to_cells<2>(const BrickDecomp<2>&, const BrickStorage&,
                                 int, CellArray<2>&);
template void bricks_to_cells<3>(const BrickDecomp<3>&, const BrickStorage&,
                                 int, CellArray<3>&);
template void bricks_to_cells<4>(const BrickDecomp<4>&, const BrickStorage&,
                                 int, CellArray<4>&);

}  // namespace brickx
