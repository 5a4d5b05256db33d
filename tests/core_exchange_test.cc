#include "core/exchange.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/exchange_view.h"
#include "simmpi/cart.h"

namespace brickx {
namespace {

using mpi::Cart;
using mpi::Comm;
using mpi::NetModel;
using mpi::Runtime;

// Deterministic globally-unique cell value.
double gval(Vec3 g, const Vec3& global_ext, int field = 0) {
  for (int a = 0; a < 3; ++a)
    g[a] = ((g[a] % global_ext[a]) + global_ext[a]) % global_ext[a];
  return static_cast<double>(
             (g[2] * global_ext[1] + g[1]) * global_ext[0] + g[0]) +
         0.125 * field;
}

enum class Method { Layout, Basic, MemMap };

struct Case {
  int nranks;
  std::int64_t domain;  // per-rank cells per axis
  std::int64_t brick;
  std::int64_t ghost;
  int fields;
  Method method;
};

// Runs a full ghost-zone exchange on a periodic 3D rank grid and verifies
// every ghost cell of every rank and field against the global function.
// Returns the per-rank send message count (asserted equal across ranks).
std::int64_t run_case(const Case& cs) {
  Runtime rt(cs.nranks, NetModel{});
  std::atomic<std::int64_t> msgs{-1};
  rt.run([&](Comm& comm) {
    const Vec3 dims = mpi::dims_create<3>(comm.size());
    Cart<3> cart(comm, dims);
    const Vec3 N = Vec3::fill(cs.domain);
    const Vec3 global_ext = dims * N;

    BrickDecomp<3> dec(N, cs.ghost, Vec3::fill(cs.brick), surface3d());
    BrickStorage store = cs.method == Method::MemMap
                             ? dec.mmap_alloc(cs.fields)
                             : dec.allocate(cs.fields);
    const auto ranks = populate(cart, dec);

    // Fill own cells; poison the ghost frame.
    const Vec3 offset = cart.coords() * N;
    CellArray3 own(Box<3>{{0, 0, 0}, N});
    for (int f = 0; f < cs.fields; ++f) {
      for_each(own.box(),
               [&](const Vec3& p) { own.at(p) = gval(p + offset, global_ext, f); });
      cells_to_bricks(dec, own, store, f);
    }

    std::int64_t sent = 0;
    if (cs.method == Method::MemMap) {
      ExchangeView<3> ev(dec, store, ranks);
      ev.exchange(comm);
      sent = ev.send_message_count();
    } else {
      Exchanger<3> ex(dec, store, ranks,
                      cs.method == Method::Layout
                          ? Exchanger<3>::Mode::Layout
                          : Exchanger<3>::Mode::Basic);
      ex.exchange(comm);
      sent = ex.send_message_count();
    }

    // Validate the whole frame including the ghost zone.
    const Vec3 G = Vec3::fill(cs.ghost);
    CellArray3 frame(Box<3>{Vec3{0, 0, 0} - G, N + G});
    for (int f = 0; f < cs.fields; ++f) {
      bricks_to_cells(dec, store, f, frame);
      std::int64_t bad = 0;
      for_each(frame.box(), [&](const Vec3& p) {
        if (frame.at(p) != gval(p + offset, global_ext, f)) ++bad;
      });
      EXPECT_EQ(bad, 0) << "rank " << comm.rank() << " field " << f;
    }

    // All ranks send the same number of messages (symmetric decomposition).
    std::int64_t expect = msgs.exchange(sent);
    EXPECT_TRUE(expect == -1 || expect == sent);
  });
  return msgs.load();
}

TEST(Exchange, LayoutCorrectEightRanks) {
  EXPECT_EQ(run_case({8, 16, 4, 4, 1, Method::Layout}), 42);
}

TEST(Exchange, LayoutMatchesPaperMessageCount42) {
  // 32^3 subdomain, 8^3 bricks, 8-wide ghost: the paper's configuration.
  EXPECT_EQ(run_case({8, 32, 8, 8, 1, Method::Layout}), 42);
}

TEST(Exchange, BasicMatchesPaperMessageCount98) {
  EXPECT_EQ(run_case({8, 32, 8, 8, 1, Method::Basic}), 98);
}

TEST(Exchange, MemMapUsesOneMessagePerNeighbor) {
  EXPECT_EQ(run_case({8, 32, 8, 8, 1, Method::MemMap}), 26);
}

TEST(Exchange, SingleRankSelfExchange) {
  // Fully periodic 1-rank job: every neighbor is the rank itself.
  EXPECT_EQ(run_case({1, 16, 4, 4, 1, Method::Layout}), 42);
  EXPECT_EQ(run_case({1, 16, 4, 4, 1, Method::MemMap}), 26);
}

TEST(Exchange, TwoRanks) {
  EXPECT_EQ(run_case({2, 16, 4, 4, 1, Method::Layout}), 42);
}

TEST(Exchange, NonCubicRankGrid) {
  EXPECT_EQ(run_case({12, 16, 4, 4, 1, Method::Layout}), 42);
  EXPECT_EQ(run_case({6, 16, 4, 4, 1, Method::MemMap}), 26);
}

TEST(Exchange, TwentySevenRanks) {
  // 8^3-cell subdomains are minimal (n == 2*gb): only corner regions are
  // nonempty and runs merge across the vanished regions between them,
  // yielding fewer messages than the 56 Basic instances.
  const std::int64_t m = run_case({27, 8, 4, 4, 1, Method::Layout});
  EXPECT_EQ(m, 35);
  EXPECT_LT(m, run_case({27, 8, 4, 4, 1, Method::Basic}));
}

TEST(Exchange, MinimalSubdomainDropsEmptyRegions) {
  // n == 2*gb: only corner regions exist; Layout message count collapses.
  // 8 corners, each sent to 7 neighbors, runs merge along the layout: the
  // count must be below Basic's 56 and above the 8-corner floor.
  const std::int64_t m = run_case({8, 8, 4, 4, 1, Method::Layout});
  EXPECT_GT(m, 8);
  EXPECT_LE(m, 56);
  const std::int64_t b = run_case({8, 8, 4, 4, 1, Method::Basic});
  EXPECT_EQ(b, 56);  // 8 corners x 7 destinations
  EXPECT_LT(m, b);
}

TEST(Exchange, MultiFieldInterleavedExchangesAllFieldsAtOnce) {
  EXPECT_EQ(run_case({8, 16, 4, 4, 3, Method::Layout}), 42);
  EXPECT_EQ(run_case({8, 16, 4, 4, 2, Method::MemMap}), 26);
}

TEST(Exchange, RepeatedExchangesAreStable) {
  // The pattern is Static: run several timesteps of exchange with the data
  // unchanged; ghosts stay correct (no tag/order drift).
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    const Vec3 N{16, 16, 16};
    BrickDecomp<3> dec(N, 4, {4, 4, 4}, surface3d());
    BrickStorage store = dec.allocate(1);
    const auto ranks = populate(cart, dec);
    const Vec3 global_ext{32, 32, 32};
    const Vec3 offset = cart.coords() * N;
    CellArray3 own(Box<3>{{0, 0, 0}, N});
    for_each(own.box(),
             [&](const Vec3& p) { own.at(p) = gval(p + offset, global_ext); });
    cells_to_bricks(dec, own, store, 0);
    Exchanger<3> ex(dec, store, ranks, Exchanger<3>::Mode::Layout);
    for (int step = 0; step < 5; ++step) {
      ex.exchange(comm);
      CellArray3 frame(Box<3>{{-4, -4, -4}, {20, 20, 20}});
      bricks_to_cells(dec, store, 0, frame);
      std::int64_t bad = 0;
      for_each(frame.box(), [&](const Vec3& p) {
        if (frame.at(p) != gval(p + offset, global_ext)) ++bad;
      });
      ASSERT_EQ(bad, 0) << "step " << step;
    }
  });
}

TEST(Exchange, PlanGroupsCoverEveryInstanceExactlyOnce) {
  BrickDecomp<3> dec({32, 32, 32}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.allocate(1);
  std::int64_t total_regions = 0, total_msgs = 0;
  for (const BitSet& nu : dec.neighbor_order()) {
    const auto groups = plan_send_groups(dec, store, nu, true);
    total_msgs += static_cast<std::int64_t>(groups.size());
    std::set<int> seen;
    for (const auto& g : groups)
      for (int o : g) {
        EXPECT_TRUE(seen.insert(o).second);
        EXPECT_TRUE(region_sent_to(
            dec.regions()[static_cast<std::size_t>(o)].sigma, nu));
      }
    total_regions += static_cast<std::int64_t>(seen.size());
    // Every nonempty member region appears.
    for (int o = 0; o < dec.surface_region_count(); ++o) {
      const auto& r = dec.regions()[static_cast<std::size_t>(o)];
      if (region_sent_to(r.sigma, nu) && r.brick_count > 0) {
        EXPECT_TRUE(seen.count(o));
      }
    }
  }
  EXPECT_EQ(total_regions, basic_message_count(3));
  EXPECT_EQ(total_msgs, 42);
}

TEST(Exchange, SendBytesEqualSurfaceInstanceVolume) {
  BrickDecomp<3> dec({32, 32, 32}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.allocate(1);
  std::vector<int> self(26, 0);  // ranks unused for byte accounting
  Exchanger<3> ex(dec, store, self, Exchanger<3>::Mode::Layout);
  Exchanger<3> bx(dec, store, self, Exchanger<3>::Mode::Basic);
  // Both methods move the same bytes; Layout just uses fewer messages.
  EXPECT_EQ(ex.send_byte_count(), bx.send_byte_count());
  std::int64_t expect = 0;
  for (int o = 0; o < dec.surface_region_count(); ++o) {
    const auto& r = dec.regions()[static_cast<std::size_t>(o)];
    expect += r.brick_count * 512 * 8 *
              static_cast<std::int64_t>(region_destinations(r.sigma, 3).size());
  }
  EXPECT_EQ(ex.send_byte_count(), expect);
}

TEST(Exchange, NetworkFloorMovesSameVolumeInFewestMessages) {
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
    BrickStorage store = dec.allocate(1);
    const auto ranks = populate(cart, dec);
    NetworkFloorExchanger<3> nf(dec, store, ranks);
    EXPECT_EQ(nf.send_message_count(), 26);
    Exchanger<3> ex(dec, store, ranks, Exchanger<3>::Mode::Layout);
    EXPECT_EQ(nf.send_byte_count(), ex.send_byte_count());
    nf.exchange(comm);  // completes without deadlock
    nf.exchange(comm);
  });
}

}  // namespace
}  // namespace brickx
