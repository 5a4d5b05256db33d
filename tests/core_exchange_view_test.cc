#include "core/exchange_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/cell_array.h"
#include "core/exchange.h"
#include "memmap/pagesize.h"
#include "memmap/view.h"
#include "simmpi/cart.h"

namespace brickx {
namespace {

using mpi::Cart;
using mpi::Comm;
using mpi::NetModel;
using mpi::Runtime;

TEST(ExchangeViewTest, RequiresMmapStorage) {
  BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
  BrickStorage heap = dec.allocate(1);
  std::vector<int> ranks(26, 0);
  EXPECT_THROW((ExchangeView<3>(dec, heap, ranks)), Error);
}

TEST(ExchangeViewTest, OneMessagePerNeighbor) {
  BrickDecomp<3> dec({32, 32, 32}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.mmap_alloc(1);
  std::vector<int> ranks(26, 0);
  ExchangeView<3> ev(dec, store, ranks);
  EXPECT_EQ(ev.send_message_count(), 26);
}

TEST(ExchangeViewTest, PayloadMatchesLayoutBytes) {
  BrickDecomp<3> dec({32, 32, 32}, 8, {8, 8, 8}, surface3d());
  BrickStorage mstore = dec.mmap_alloc(1);
  BrickStorage hstore = dec.allocate(1);
  std::vector<int> ranks(26, 0);
  ExchangeView<3> ev(dec, mstore, ranks);
  Exchanger<3> ex(dec, hstore, ranks, Exchanger<3>::Mode::Layout);
  EXPECT_EQ(ev.payload_byte_count(), ex.send_byte_count());
  // 8^3 doubles on 4 KiB pages: zero padding overhead (the Theta case).
  if (mm::host_page_size() == 4096) {
    EXPECT_EQ(ev.send_byte_count(), ev.payload_byte_count());
    EXPECT_EQ(ev.padding_overhead_percent(), 0.0);
  }
}

TEST(ExchangeViewTest, LargePagePaddingOverheadGrowsForSmallSubdomains) {
  // The Table 2 effect: on 64 KiB pages, small subdomains waste most of
  // each page; large subdomains hardly notice.
  const std::size_t big = 64 * 1024;
  std::vector<int> ranks(26, 0);
  BrickDecomp<3> small({16, 16, 16}, 8, {8, 8, 8}, surface3d());
  BrickStorage ssto = small.mmap_alloc(1, big);
  ExchangeView<3> sev(small, ssto, ranks);
  BrickDecomp<3> large({64, 64, 64}, 8, {8, 8, 8}, surface3d());
  BrickStorage lsto = large.mmap_alloc(1, big);
  ExchangeView<3> lev(large, lsto, ranks);
  EXPECT_GT(sev.padding_overhead_percent(), lev.padding_overhead_percent());
  EXPECT_GT(sev.padding_overhead_percent(), 100.0);  // mostly padding
}

TEST(ExchangeViewTest, ViewSegmentsStayFarBelowMapLimit) {
  BrickDecomp<3> dec({32, 32, 32}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.mmap_alloc(1);
  std::vector<int> ranks(26, 0);
  ExchangeView<3> ev(dec, store, ranks);
  // 98 send segments + 98 recv segments; the paper's concern threshold is
  // vm.max_map_count = 65530.
  EXPECT_EQ(ev.view_segment_count(), 2 * 98);
  EXPECT_LT(ev.view_segment_count(), 65530);
}

TEST(ExchangeViewTest, ViewsAliasStorageWithoutCopy) {
  // Writing through brick storage must be immediately visible in the send
  // view — that is the whole point of MemMap (zero on-node data movement).
  BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
  BrickStorage store = dec.mmap_alloc(1);
  std::vector<int> ranks(26, 0);

  // Reconstruct a send view for one neighbor by hand and spot-check
  // aliasing: pick neighbor {1} (positive x face).
  mm::ViewBuilder vb(*store.file());
  std::size_t payload = 0;
  for (int o = 0; o < dec.surface_region_count(); ++o) {
    const auto& r = dec.regions()[static_cast<std::size_t>(o)];
    if (!region_sent_to(r.sigma, BitSet{1})) continue;
    const auto& c = store.chunks()[static_cast<std::size_t>(o)];
    vb.add(c.offset, c.padded_bytes);
    payload += c.bytes;
  }
  mm::View v = vb.build();
  ASSERT_TRUE(v.valid());
  EXPECT_GE(v.size(), payload);

  // First chunk in the view is the first layout region sent to {1}.
  int first = -1;
  for (int o = 0; o < dec.surface_region_count() && first < 0; ++o)
    if (region_sent_to(dec.regions()[static_cast<std::size_t>(o)].sigma,
                       BitSet{1}) &&
        dec.regions()[static_cast<std::size_t>(o)].brick_count > 0)
      first = o;
  ASSERT_GE(first, 0);
  const std::int64_t brick0 =
      dec.regions()[static_cast<std::size_t>(first)].first_brick;
  store.brick(brick0)[0] = 1234.5;
  EXPECT_EQ(*reinterpret_cast<double*>(v.data()), 1234.5);
  // And the aliasing goes both ways.
  *reinterpret_cast<double*>(v.data()) = 77.25;
  EXPECT_EQ(store.brick(brick0)[0], 77.25);
}

TEST(ExchangeViewTest, UnmappedViewsMatchMappedOnesAndAreDisjoint) {
  BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
  BrickStorage store = dec.mmap_alloc(1, 16 * 1024);
  std::vector<int> ranks(26, 0);
  const ExchangeView<3> mapped(dec, store, ranks);
  const std::int64_t live = mm::live_view_segments();
  ExchangeView<3> ev(dec, store, ranks, /*alias_storage=*/false);
  EXPECT_EQ(mm::live_view_segments(), live);

  EXPECT_EQ(ev.send_message_count(), mapped.send_message_count());
  EXPECT_EQ(ev.send_byte_count(), mapped.send_byte_count());
  EXPECT_EQ(ev.payload_byte_count(), mapped.payload_byte_count());
  EXPECT_EQ(ev.padding_overhead_percent(), mapped.padding_overhead_percent());
  EXPECT_EQ(ev.view_segment_count(), mapped.view_segment_count());
  const PlanCost a = ev.setup_cost(), b = mapped.setup_cost();
  EXPECT_EQ(a.regions, b.regions);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.mmap_segments, b.mmap_segments);

  auto describe = [](const ExchangeView<3>& x) {
    std::vector<std::size_t> d;
    x.visit_views([&](const mm::View& v) {
      d.push_back(v.size());
      for (const auto& s : v.segment_map())
        d.insert(d.end(), {s.view_offset, s.file_offset, s.length});
    });
    return d;
  };
  EXPECT_EQ(describe(ev), describe(mapped));

  // Pairwise disjoint, and none of them overlaps the storage: the GPU
  // simulator registers every view as its own address range.
  auto expect_disjoint = [&](const ExchangeView<3>& x) {
    std::vector<std::pair<const std::byte*, const std::byte*>> spans;
    x.visit_views([&](const mm::View& v) {
      spans.emplace_back(v.data(), v.data() + v.size());
    });
    spans.emplace_back(store.data(), store.data() + store.bytes());
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].second, spans[i].first) << i;
  };
  expect_disjoint(ev);

  // Move-assign over a live plan, then write every byte of every view
  // (the sanitizer build checks the old buffer is gone and the new one
  // is whole).
  ev = ExchangeView<3>(dec, store, ranks, /*alias_storage=*/false);
  expect_disjoint(ev);
  ev.visit_views(
      [](const mm::View& v) { std::memset(v.data(), 0x5A, v.size()); });
  EXPECT_EQ(mm::live_view_segments(), live);
}

TEST(ExchangeViewTest, EndToEndOnEmulatedLargePages) {
  // Full 8-rank exchange with 64 KiB emulated pages: padding travels but
  // ghost data still lands exactly.
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    const Vec3 N{16, 16, 16};
    BrickDecomp<3> dec(N, 4, {4, 4, 4}, surface3d());
    BrickStorage store = dec.mmap_alloc(1, 64 * 1024);
    const auto ranks = populate(cart, dec);
    const Vec3 offset = cart.coords() * N;
    const Vec3 global{32, 32, 32};
    auto f = [&](Vec3 g) {
      for (int a = 0; a < 3; ++a) g[a] = ((g[a] % 32) + 32) % 32;
      return static_cast<double>((g[2] * 32 + g[1]) * 32 + g[0]);
    };
    (void)global;
    CellArray3 own(Box<3>{{0, 0, 0}, N});
    for_each(own.box(), [&](const Vec3& p) { own.at(p) = f(p + offset); });
    cells_to_bricks(dec, own, store, 0);
    ExchangeView<3> ev(dec, store, ranks);
    EXPECT_GT(ev.padding_overhead_percent(), 0.0);
    ev.exchange(comm);
    CellArray3 frame(Box<3>{{-4, -4, -4}, {20, 20, 20}});
    bricks_to_cells(dec, store, 0, frame);
    std::int64_t bad = 0;
    for_each(frame.box(), [&](const Vec3& p) {
      if (frame.at(p) != f(p + offset)) ++bad;
    });
    EXPECT_EQ(bad, 0);
  });
}

TEST(ExchangeViewTest, TwoDimensionalViews) {
  Runtime rt(4, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<2> cart(comm, {2, 2});
    const Vec2 N{16, 16};
    BrickDecomp<2> dec(N, 8, {8, 8}, surface2d());
    BrickStorage store = dec.mmap_alloc(1);
    const auto ranks = populate(cart, dec);
    ExchangeView<2> ev(dec, store, ranks);
    EXPECT_EQ(ev.send_message_count(), 8);
    ev.exchange(comm);
  });
}

}  // namespace
}  // namespace brickx
