// Lifecycle misuse of the exchange engine (core/exchange_plan.h), driven
// through each of the six exchangers that build on it: every misuse must
// throw brickx::Error instead of corrupting a round or hanging a rank.

#include "core/exchange_plan.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/array_exchange.h"
#include "common/error.h"
#include "core/cell_array.h"
#include "core/exchange.h"
#include "core/exchange_view.h"
#include "core/shift.h"
#include "simmpi/cart.h"

namespace brickx {
namespace {

using mpi::Cart;
using mpi::Comm;
using mpi::NetModel;
using mpi::Runtime;

enum class Kind { Layout, MemMap, Network, Shift, Pack, Types };

/// One exchanger as the checks see it: its engine (Shift: phase 0), its own
/// make_persistent, and the origin its rounds are started on.
struct Rig {
  Comm& comm;
  ExchangePlan& plan;
  std::function<void()> bind;
  void* origin = nullptr;
};

/// Build an exchanger of `kind` on a one-rank periodic job (every neighbor
/// is the rank itself) and hand it to `check`.
void with_exchanger(Kind kind, const std::function<void(Rig&)>& check) {
  Runtime rt(1, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {1, 1, 1});
    const Vec3 N{16, 16, 16};
    const std::int64_t g = 4;
    BrickDecomp<3> dec(N, g, Vec3::fill(4), surface3d());
    BrickStorage store =
        kind == Kind::MemMap ? dec.mmap_alloc(1) : dec.allocate(1);
    const auto ranks = populate(cart, dec);
    const auto dirs = Cart<3>::all_directions();
    std::vector<int> nbrs;
    for (const auto& d : dirs) nbrs.push_back(cart.neighbor(d));
    CellArray3 field(Box<3>{Vec3::fill(-g), N + Vec3::fill(g)});
    auto run = [&](ExchangePlan& plan, std::function<void()> bind,
                   void* origin = nullptr) {
      Rig rig{comm, plan, std::move(bind), origin};
      check(rig);
    };
    switch (kind) {
      case Kind::Layout: {
        Exchanger<3> x(dec, store, ranks, Exchanger<3>::Mode::Layout);
        run(x, [&] { x.make_persistent(comm); });
        break;
      }
      case Kind::MemMap: {
        ExchangeView<3> x(dec, store, ranks);
        run(x, [&] { x.make_persistent(comm); });
        break;
      }
      case Kind::Network: {
        NetworkFloorExchanger<3> x(dec, store, ranks);
        run(x, [&] { x.make_persistent(comm); });
        break;
      }
      case Kind::Shift: {
        ShiftExchanger<3> x(dec, store, shift_neighbors(cart));
        run(x.phase(0), [&] { x.make_persistent(comm); });
        break;
      }
      case Kind::Pack: {
        baseline::PackExchanger x(N, g, dirs, nbrs);
        run(x, [&] { x.make_persistent(comm); });
        break;
      }
      case Kind::Types: {
        baseline::MpiTypesExchanger x(N, g, dirs, nbrs, field);
        run(x, [&] { x.make_persistent(comm, field); }, field.raw().data());
        break;
      }
    }
  });
}

/// Expect `fn` to throw a brickx::Error whose message contains `what`: the
/// engine's own check, not a later failure inside simmpi.
template <typename F>
void expect_error(F&& fn, const std::string& what) {
  try {
    fn();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
    return;
  }
  ADD_FAILURE() << "no brickx::Error naming \"" << what << "\"";
}

bool has_partition_table(Kind k) {
  return k == Kind::Layout || k == Kind::MemMap;
}

class PlanMisuse : public ::testing::TestWithParam<Kind> {};

TEST_P(PlanMisuse, BindingTwiceThrows) {
  with_exchanger(GetParam(), [](Rig& r) {
    r.bind();
    EXPECT_TRUE(r.plan.persistent());
    expect_error(r.bind, "already bound");
    r.plan.exchange(r.comm, r.origin);  // the first binding still works
  });
}

TEST_P(PlanMisuse, PersistentThenPartitionedThrows) {
  with_exchanger(GetParam(), [](Rig& r) {
    r.bind();
    expect_error([&] { r.plan.make_partitioned(r.comm); },
                 "mutually exclusive");
    EXPECT_FALSE(r.plan.partitioned());
  });
}

TEST_P(PlanMisuse, StartWhileInFlightThrows) {
  with_exchanger(GetParam(), [](Rig& r) {
    auto start = [&] { r.plan.start(r.comm, r.origin); };
    start();
    expect_error(start, "still in flight");
    r.plan.finish(r.comm);
    // Same for a bound plan.
    r.bind();
    start();
    expect_error(start, "still in flight");
    r.plan.finish(r.comm);
    r.plan.exchange(r.comm, r.origin);  // completed rounds reset the check
  });
}

TEST_P(PlanMisuse, BindingWhileInFlightThrows) {
  with_exchanger(GetParam(), [](Rig& r) {
    r.plan.start(r.comm, r.origin);
    expect_error(r.bind, "in flight");
    expect_error([&] { r.plan.make_partitioned(r.comm); }, "in flight");
    r.plan.finish(r.comm);
    EXPECT_FALSE(r.plan.persistent());
    EXPECT_FALSE(r.plan.partitioned());
  });
}

TEST_P(PlanMisuse, PartitioningNeedsAPartitionTable) {
  const Kind kind = GetParam();
  with_exchanger(kind, [kind](Rig& r) {
    auto partition = [&] { r.plan.make_partitioned(r.comm); };
    if (!has_partition_table(kind)) {
      expect_error(partition, "no partition table");
      EXPECT_FALSE(r.plan.partitioned());
      return;
    }
    // Brick plans partition; binding again, either way, is misuse.
    partition();
    EXPECT_FALSE(r.plan.send_parts().empty());
    expect_error(partition, "already bound");
    expect_error(r.bind, "mutually exclusive");
    r.plan.part_start();
    expect_error([&] { r.plan.part_start(); }, "still in flight");
    for (std::size_t j = 0; j < r.plan.send_parts().size(); ++j)
      r.plan.part_pready(static_cast<int>(j));
    r.plan.part_finish();
  });
}

TEST(ExchangePlan, PersistentTypesRoundOnAnotherFieldThrows) {
  Runtime rt(1, NetModel{});
  rt.run([](Comm& comm) {
    Cart<3> cart(comm, {1, 1, 1});
    const Vec3 N{8, 8, 8};
    const auto dirs = Cart<3>::all_directions();
    std::vector<int> nbrs;
    for (const auto& d : dirs) nbrs.push_back(cart.neighbor(d));
    const Box<3> frame{Vec3::fill(-2), N + Vec3::fill(2)};
    CellArray3 bound(frame), other(frame);
    baseline::MpiTypesExchanger x(N, 2, dirs, nbrs, bound);
    x.make_persistent(comm, bound);
    expect_error([&] { x.start(comm, other); }, "different field");
    x.exchange(comm, bound);  // the rejected start left no round open
  });
}

std::string kind_name(const ::testing::TestParamInfo<Kind>& info) {
  static const char* const kNames[] = {"Layout", "MemMap", "Network",
                                       "Shift",  "Pack",   "MpiTypes"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllExchangers, PlanMisuse,
                         ::testing::Values(Kind::Layout, Kind::MemMap,
                                           Kind::Network, Kind::Shift,
                                           Kind::Pack, Kind::Types),
                         kind_name);

}  // namespace
}  // namespace brickx
