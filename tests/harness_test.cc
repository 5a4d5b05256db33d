#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "result_bits.h"

namespace brickx::harness {
namespace {

Config small_config(Method m, bool use125) {
  Config cfg;
  cfg.machine = model::theta();
  cfg.rank_dims = {2, 2, 2};
  cfg.subdomain = {16, 16, 16};
  cfg.brick = 4;
  cfg.ghost = 4;
  cfg.use125 = use125;
  cfg.method = m;
  cfg.timesteps = use125 ? 4 : 8;  // two full exchange batches
  cfg.warmup_exchanges = 1;
  cfg.validate = true;
  return cfg;
}

// ---- the central correctness claim: every implementation computes the
// exact same evolution as the single-domain reference -----------------------

struct MethodCase {
  Method method;
  bool use125;
};

class AllMethods : public ::testing::TestWithParam<MethodCase> {};

TEST_P(AllMethods, MatchesGlobalReferenceExactly) {
  const auto& mc = GetParam();
  Result res = run(small_config(mc.method, mc.use125));
  EXPECT_TRUE(res.validated) << method_name(mc.method);
  EXPECT_GT(res.gstencils, 0.0);
  EXPECT_GT(res.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    CpuMethods, AllMethods,
    ::testing::Values(MethodCase{Method::Yask, false},
                      MethodCase{Method::Yask, true},
                      MethodCase{Method::MpiTypes, false},
                      MethodCase{Method::MpiTypes, true},
                      MethodCase{Method::Basic, false},
                      MethodCase{Method::Layout, false},
                      MethodCase{Method::Layout, true},
                      MethodCase{Method::MemMap, false},
                      MethodCase{Method::MemMap, true}),
    [](const auto& info) {
      return std::string(method_name(info.param.method)) +
             (info.param.use125 ? "_125pt" : "_7pt");
    });

// ---- GPU modes also compute exactly (the simulated device runs the real
// kernels; only time is modeled) ---------------------------------------------

struct GpuCase {
  Method method;
  GpuMode mode;
};

class GpuMethods : public ::testing::TestWithParam<GpuCase> {};

TEST_P(GpuMethods, MatchesGlobalReferenceExactly) {
  const auto& gc = GetParam();
  Config cfg = small_config(gc.method, false);
  cfg.machine = model::summit();
  cfg.gpu = gc.mode;
  Result res = run(cfg);
  EXPECT_TRUE(res.validated);
}

INSTANTIATE_TEST_SUITE_P(
    Gpu, GpuMethods,
    ::testing::Values(GpuCase{Method::Layout, GpuMode::CudaAware},
                      GpuCase{Method::Layout, GpuMode::Unified},
                      GpuCase{Method::MemMap, GpuMode::Unified},
                      GpuCase{Method::MpiTypes, GpuMode::Unified}),
    [](const auto& info) {
      std::string n = method_name(info.param.method);
      n += info.param.mode == GpuMode::CudaAware ? "_CA" : "_UM";
      return n;
    });

// ---- phase accounting and counts ------------------------------------------

TEST(Harness, MessageCountsPerMethod) {
  EXPECT_EQ(run(small_config(Method::Layout, false)).msgs_per_rank, 42);
  EXPECT_EQ(run(small_config(Method::Basic, false)).msgs_per_rank, 98);
  EXPECT_EQ(run(small_config(Method::MemMap, false)).msgs_per_rank, 26);
  EXPECT_EQ(run(small_config(Method::Yask, false)).msgs_per_rank, 26);
  EXPECT_EQ(run(small_config(Method::MpiTypes, false)).msgs_per_rank, 26);
}

TEST(Harness, OnlyYaskHasPackTime) {
  EXPECT_GT(run(small_config(Method::Yask, false)).pack.avg(), 0.0);
  EXPECT_EQ(run(small_config(Method::Layout, false)).pack.avg(), 0.0);
  EXPECT_EQ(run(small_config(Method::MemMap, false)).pack.avg(), 0.0);
  EXPECT_EQ(run(small_config(Method::MpiTypes, false)).pack.avg(), 0.0);
}

TEST(Harness, PackFreeBeatsPackingOnComm) {
  const double yask = run(small_config(Method::Yask, false)).comm_per_step;
  const double types =
      run(small_config(Method::MpiTypes, false)).comm_per_step;
  const double layout = run(small_config(Method::Layout, false)).comm_per_step;
  const double memmap = run(small_config(Method::MemMap, false)).comm_per_step;
  Config net = small_config(Method::Network, false);
  net.validate = false;
  const double floor = run(net).comm_per_step;
  // The paper's ordering on small subdomains.
  EXPECT_LT(memmap, yask);
  EXPECT_LT(layout, yask);
  EXPECT_LT(yask, types);
  EXPECT_LE(floor, memmap * 1.05);
}

TEST(Harness, DeterministicResults) {
  const Result a = run(small_config(Method::MemMap, false));
  const Result b = run(small_config(Method::MemMap, false));
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.comm_per_step, b.comm_per_step);
  EXPECT_EQ(a.gstencils, b.gstencils);
}

TEST(Harness, ModelOnlyModeSkipsMathButKeepsTiming) {
  Config cfg = small_config(Method::Layout, false);
  cfg.execute_kernels = false;
  cfg.validate = false;
  const Result fast = run(cfg);
  const Result full = run(small_config(Method::Layout, false));
  // Virtual times are identical whether or not the math actually ran.
  EXPECT_EQ(fast.total_seconds, full.total_seconds);
  EXPECT_FALSE(fast.validated);
}

TEST(Harness, InvalidConfigsRejected) {
  Config cfg = small_config(Method::MemMap, false);
  cfg.gpu = GpuMode::CudaAware;  // paper: cudaMalloc cannot MemMap
  cfg.machine = model::summit();
  EXPECT_THROW((void)run(cfg), Error);

  Config cfg2 = small_config(Method::Layout, false);
  cfg2.gpu = GpuMode::Unified;  // GPU mode on a CPU machine model
  EXPECT_THROW((void)run(cfg2), Error);

  Config cfg3 = small_config(Method::Yask, false);
  cfg3.machine = model::summit();
  cfg3.gpu = GpuMode::Unified;  // YASK is CPU-only
  EXPECT_THROW((void)run(cfg3), Error);
}

TEST(Harness, UnifiedMemoryPenalizesUnalignedLayoutCompute) {
  // Figure 15: LayoutUM's compute suffers page-fault backwash because its
  // regions are not page aligned; MemMapUM's page-aligned chunks do not
  // drag fragmented pages along. LayoutCA pays no faults at all. The
  // effect needs realistically-sized chunks (64 KiB pages vs multi-brick
  // chunks), so run the paper's geometry with model-only compute.
  auto base = [] {
    Config c;
    c.machine = model::summit();
    c.rank_dims = {2, 2, 2};
    c.subdomain = {128, 128, 128};
    c.brick = 8;
    c.ghost = 8;
    c.timesteps = 8;
    c.execute_kernels = false;
    c.validate = false;
    return c;
  };
  Config lca = base();
  lca.method = Method::Layout;
  lca.gpu = GpuMode::CudaAware;
  Config lum = lca;
  lum.gpu = GpuMode::Unified;
  Config mum = base();
  mum.method = Method::MemMap;
  mum.gpu = GpuMode::Unified;
  const double calc_ca = run(lca).calc.avg();
  const double calc_um = run(lum).calc.avg();
  const double calc_mm = run(mum).calc.avg();
  EXPECT_GT(calc_um, calc_mm);
  EXPECT_GE(calc_mm, calc_ca);
}

TEST(Harness, PaddingReportedOnlyForMemMap) {
  Config cfg = small_config(Method::MemMap, false);
  cfg.page_size = 64 * 1024;
  const Result r = run(cfg);
  EXPECT_GT(r.padding_percent, 0.0);
  EXPECT_GT(r.wire_bytes_per_rank, r.payload_bytes_per_rank);
  EXPECT_EQ(run(small_config(Method::Layout, false)).padding_percent, 0.0);
}

// ---- timing-only MemMap runs use unmapped views ----------------------------
//
// Without kernels no ghost byte is read, so MemMap's views are not mapped
// (ExchangeView's alias_storage = false). Everything a Result reports must
// still match an executed run with real mmap views bit for bit.

struct MemMapCase {
  std::string name;
  Config cfg;
};

void PrintTo(const MemMapCase& c, std::ostream* os) { *os << c.name; }

/// The MemMap matrix: page 0/16K/64K x brick 4/8 x 7/125-point under the
/// flat fabric, dragonfly block/greedy/embed and overlap, plus the
/// lexicographic layout on 2x2x2, shm, shm-agg, plan-per-round, summit UM,
/// summit_future CudaAware, delay+reorder faults and 3 fields.
std::vector<MemMapCase> memmap_matrix() {
  auto base = [](std::size_t page, std::int64_t brick, bool use125) {
    Config cfg;
    cfg.machine = model::theta();
    cfg.rank_dims = {2, 2, 1};
    cfg.subdomain = {16, 16, 16};
    cfg.brick = brick;
    cfg.ghost = brick;
    cfg.use125 = use125;
    cfg.method = Method::MemMap;
    cfg.page_size = page;
    cfg.timesteps = use125 ? 4 : 8;
    cfg.warmup_exchanges = 1;
    cfg.validate = true;
    return cfg;
  };
  std::vector<MemMapCase> cases;
  for (const std::size_t page : {0, 16 * 1024, 64 * 1024})
    for (const std::int64_t brick : {4, 8})
      for (const bool use125 : {false, true}) {
        const std::string stem = "p" + std::to_string(page / 1024) + "k_b" +
                                 std::to_string(brick) +
                                 (use125 ? "_125pt" : "_7pt");
        const Config cfg = base(page, brick, use125);
        cases.push_back({stem + "_flat", cfg});
        for (const auto& [map, tag] :
             {std::pair{netsim::MapKind::Block, "_df_block"},
              std::pair{netsim::MapKind::Greedy, "_df_greedy"},
              std::pair{netsim::MapKind::Embed, "_df_embed"}}) {
          Config df = cfg;
          df.fabric = netsim::FabricKind::Dragonfly;
          df.mapping = map;
          cases.push_back({stem + tag, df});
        }
        Config ol = cfg;
        ol.overlap = true;
        cases.push_back({stem + "_overlap", ol});
      }
  auto add = [&](const std::string& name, auto&& edit) {
    Config cfg = base(0, 4, false);
    edit(cfg);
    cases.push_back({name, cfg});
  };
  add("lexicographic_2x2x2", [](Config& c) {
    c.rank_dims = {2, 2, 2};
    c.layout = lexicographic_layout(3);
  });
  add("shm", [](Config& c) {
    c.machine.net.ranks_per_node = 2;
    c.transport = transport::Kind::Shm;
  });
  add("shm_agg", [](Config& c) {
    c.machine.net.ranks_per_node = 2;
    c.transport = transport::Kind::ShmAgg;
  });
  add("per_round", [](Config& c) { c.plan = PlanMode::PerRound; });
  add("summit_um", [](Config& c) {
    c.machine = model::summit();
    c.machine.net.ranks_per_node = 2;
    c.gpu = GpuMode::Unified;
  });
  add("summit_future_ca", [](Config& c) {
    c.machine = model::summit_future();
    c.machine.net.ranks_per_node = 2;
    c.gpu = GpuMode::CudaAware;
  });
  add("delay_reorder_faults", [](Config& c) {
    c.faults.delay = 0.5;
    c.faults.reorder = 0.5;
    c.faults.seed = 5;
  });
  add("fields3", [](Config& c) { c.fields = 3; });
  return cases;
}

class MemMapTimingOnly : public ::testing::TestWithParam<MemMapCase> {};

TEST_P(MemMapTimingOnly, MatchesExecutedRunBitwise) {
  const Config& executed = GetParam().cfg;
  const Result ref = run(executed);
  ASSERT_TRUE(ref.validated);
  Config timing = executed;
  timing.execute_kernels = false;
  EXPECT_EQ(timing_bits(run(timing)), timing_bits(ref));
  // The legacy proxy flag now only forces timing-only.
  Config proxy = executed;
  proxy.memmap_floor_proxy = true;
  const Result p = run(proxy);
  EXPECT_FALSE(p.validated);
  EXPECT_EQ(timing_bits(p), timing_bits(ref));
}

INSTANTIATE_TEST_SUITE_P(
    MemMap, MemMapTimingOnly, ::testing::ValuesIn(memmap_matrix()),
    [](const ::testing::TestParamInfo<MemMapCase>& info) {
      return info.param.name;
    });

TEST(Harness, LexicographicLayoutComputesIdenticallyWithMoreMessages) {
  // Fig. 10's No-Layout: block order does not affect compute, only the
  // message count.
  Config opt = small_config(Method::Layout, false);
  Config lex = opt;
  lex.layout = lexicographic_layout(3);
  const Result a = run(opt);
  const Result b = run(lex);
  EXPECT_TRUE(b.validated);
  // Identical modeled compute (up to clock-baseline rounding).
  EXPECT_NEAR(a.calc.avg(), b.calc.avg(), 1e-15);
  EXPECT_GT(b.msgs_per_rank, a.msgs_per_rank);
}

TEST(Harness, ShiftMatchesReferenceExactly) {
  for (bool use125 : {false, true}) {
    Result r = run(small_config(Method::Shift, use125));
    EXPECT_TRUE(r.validated) << (use125 ? "125pt" : "7pt");
    // 2*D face-neighbor pairs only; runs may split each slab a little.
    EXPECT_LT(r.msgs_per_rank, 42);
  }
}

TEST(Harness, ShiftTradesLatencyForMessages) {
  // Fewer messages than Layout, but D dependent phases serialize the
  // latency: on small (latency-bound) subdomains Shift's comm time is
  // *not* better than the single-phase Layout exchange.
  Config shift = small_config(Method::Shift, false);
  Config layout = small_config(Method::Layout, false);
  shift.validate = layout.validate = false;
  shift.execute_kernels = layout.execute_kernels = false;
  const Result rs = run(shift);
  const Result rl = run(layout);
  EXPECT_LT(rs.msgs_per_rank, rl.msgs_per_rank);
  EXPECT_EQ(rs.wire_bytes_per_rank, rl.wire_bytes_per_rank);
  EXPECT_GT(rs.comm_per_step, 0.0);
}

TEST(Harness, OverlapValidatesAndReducesWait) {
  for (Method m : {Method::Layout, Method::MemMap, Method::Basic}) {
    Config plain = small_config(m, false);
    Config over = plain;
    over.overlap = true;
    const Result a = run(plain);
    const Result b = run(over);
    EXPECT_TRUE(b.validated) << method_name(m);
    // Waiting shrinks: the interior compute hides inside it.
    EXPECT_LE(b.wait.avg(), a.wait.avg()) << method_name(m);
  }
}

TEST(Harness, OverlapHelpsWhenComputeCanHideComm) {
  // At compute-heavy sizes overlap wins; at tiny (latency-bound) sizes the
  // extra per-slab sweep overheads make it a wash or a loss — the paper's
  // observation about YASK-OL.
  auto timed = [](std::int64_t dim, bool overlap) {
    Config c;
    c.machine = model::theta();
    c.rank_dims = {2, 2, 2};
    c.subdomain = Vec3::fill(dim);
    c.brick = 8;
    c.ghost = 8;
    c.method = Method::Layout;
    c.timesteps = 8;
    c.overlap = overlap;
    c.execute_kernels = false;
    return run(c).total_seconds;
  };
  EXPECT_LT(timed(128, true), timed(128, false));  // compute hides comm
  EXPECT_GT(timed(16, true), timed(16, false) * 0.8);  // no real gain
}

TEST(Harness, OverlapRejectedWhereUnsupported) {
  Config cfg = small_config(Method::Yask, false);
  cfg.overlap = true;
  EXPECT_THROW((void)run(cfg), Error);
  Config cfg2 = small_config(Method::Shift, false);
  cfg2.overlap = true;
  EXPECT_THROW((void)run(cfg2), Error);
}

TEST(Harness, CuMemMapFutureModeValidates) {
  // Paper footnote 2: cuMemMap would permit MemMap over device memory.
  Config cfg = small_config(Method::MemMap, false);
  cfg.machine = model::summit_future();
  cfg.gpu = GpuMode::CudaAware;
  const Result r = run(cfg);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(r.msgs_per_rank, 26);
  // Device memory: no page faults, so compute matches LayoutCA.
  Config lca = small_config(Method::Layout, false);
  lca.machine = model::summit_future();
  lca.gpu = GpuMode::CudaAware;
  EXPECT_NEAR(r.calc.avg(), run(lca).calc.avg(), 1e-12);
  // On stock Summit the same config is rejected (paper Section 5).
  cfg.machine = model::summit();
  EXPECT_THROW((void)run(cfg), Error);
}

TEST(Harness, ManualGpuStagingValidatesAndPaysOnNode) {
  // The Section-5 motivation workflow: pack on GPU, shuttle packed buffers
  // over the link, MPI on the host. Arithmetic stays exact; a large share
  // of comm time is on-node movement (reference [29]: about half).
  Config cfg = small_config(Method::Yask, false);
  cfg.machine = model::summit();
  cfg.gpu = GpuMode::Staged;
  const Result r = run(cfg);
  EXPECT_TRUE(r.validated);
  EXPECT_GT(r.pack.avg(), 0.0);
  EXPECT_GT(r.pack.avg() / r.comm_per_step, 0.3);
  // Staged is only defined for the packing baseline.
  Config bad = small_config(Method::Layout, false);
  bad.machine = model::summit();
  bad.gpu = GpuMode::Staged;
  EXPECT_THROW((void)run(bad), Error);
}

TEST(Harness, SingleRankRuns) {
  Config cfg = small_config(Method::MemMap, false);
  cfg.rank_dims = {1, 1, 1};
  EXPECT_TRUE(run(cfg).validated);
}

// ---- node-model validation -------------------------------------------------

namespace rpn_test {

Config cheap_config() {
  Config cfg = small_config(Method::Layout, false);
  cfg.timesteps = 1;
  cfg.execute_kernels = false;
  cfg.validate = false;
  return cfg;
}

}  // namespace rpn_test

TEST(Harness, RanksPerNodeMustBePositive) {
  for (int rpn : {0, -1, -16}) {
    Config cfg = rpn_test::cheap_config();
    cfg.machine.net.ranks_per_node = rpn;
    EXPECT_THROW((void)run(cfg), Error) << "ranks_per_node " << rpn;
  }
}

TEST(Harness, NonDivisibleWorldWarnsButRuns) {
  // 8 ranks over ranks_per_node = 3: the last node runs underfilled; the
  // harness must say so on stderr and still produce a result.
  Config cfg = rpn_test::cheap_config();
  cfg.machine.net.ranks_per_node = 3;
  ::testing::internal::CaptureStderr();
  const Result r = run(cfg);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_NE(err.find("not a multiple of ranks_per_node"), std::string::npos)
      << "stderr was: " << err;
}

TEST(Harness, DivisibleWorldDoesNotWarn) {
  Config cfg = rpn_test::cheap_config();
  cfg.machine.net.ranks_per_node = 4;  // divides the 2x2x2 world evenly
  ::testing::internal::CaptureStderr();
  (void)run(cfg);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("ranks_per_node"), std::string::npos)
      << "unexpected warning: " << err;
}

// ---- on-node transport tier (DESIGN.md §13) --------------------------------

TEST(Harness, ShmAggRejectsOneRankPerNode) {
  // With one rank per node there is nothing to aggregate; the harness must
  // refuse loudly instead of silently degenerating to per-message frames.
  Config cfg = rpn_test::cheap_config();
  cfg.machine.net.ranks_per_node = 1;
  cfg.transport = transport::Kind::ShmAgg;
  try {
    (void)run(cfg);
    FAIL() << "shm-agg with ranks_per_node == 1 was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ranks_per_node"), std::string::npos)
        << e.what();
  }
  // The same machine shape is fine for the tiers that do not aggregate.
  for (transport::Kind k : {transport::Kind::Flat, transport::Kind::Shm}) {
    Config ok = rpn_test::cheap_config();
    ok.transport = k;
    EXPECT_GT(run(ok).total_seconds, 0.0) << transport::kind_name(k);
  }
}

TEST(Harness, TransportTiersComputeExactResults) {
  // Full harness runs with kernels + validation: the tier may change only
  // timing, never the computed evolution.
  for (transport::Kind k : {transport::Kind::Shm, transport::Kind::ShmAgg}) {
    Config cfg = small_config(Method::Layout, false);
    cfg.machine.net.ranks_per_node = 4;
    cfg.transport = k;
    const Result r = run(cfg);
    EXPECT_TRUE(r.validated) << transport::kind_name(k);
    EXPECT_GT(r.transport_stats.onnode_msgs, 0);
    // Symmetric periodic cube: rank 0's whole-run sends equal its receives,
    // and the locality split partitions them.
    EXPECT_EQ(r.msgs_intra_per_rank + r.msgs_inter_per_rank,
              r.msgs_recv_per_rank);
  }
}

TEST(Harness, TransportSplitMatchesSendCounters) {
  // Whole-run rank-0 split == batches * per-exchange sends, and the split
  // is identical across transports (it classifies, it does not reroute).
  Config cfg = rpn_test::cheap_config();
  cfg.machine.net.ranks_per_node = 4;
  Result flat = run(cfg);
  cfg.transport = transport::Kind::ShmAgg;
  Result agg = run(cfg);
  EXPECT_EQ(flat.msgs_intra_per_rank, agg.msgs_intra_per_rank);
  EXPECT_EQ(flat.msgs_inter_per_rank, agg.msgs_inter_per_rank);
  EXPECT_EQ(flat.bytes_intra_per_rank, agg.bytes_intra_per_rank);
  EXPECT_EQ(flat.bytes_inter_per_rank, agg.bytes_inter_per_rank);
  EXPECT_GT(agg.transport_stats.agg_frames, 0);
  EXPECT_EQ(agg.transport_stats.agg_submsgs % agg.msgs_inter_per_rank, 0)
      << "global framed sub-messages must cover all ranks' inter sends";
}

// ---- fault schedules through the harness front door ------------------------

TEST(Harness, DelayOnlyFaultScheduleKeepsResultsExact) {
  Config cfg = small_config(Method::Layout, false);
  cfg.faults.delay = 1.0;
  cfg.faults.max_delay = 1e-4;
  cfg.faults.seed = 3;
  const Result r = run(cfg);
  EXPECT_TRUE(r.validated);  // data is untouched by pure delays
  EXPECT_GT(r.fault_counts.delayed, 0);
  EXPECT_EQ(r.fault_counts.detected, 0);
  // Delays can only push virtual time out, never pull it in.
  const Result clean = run(small_config(Method::Layout, false));
  EXPECT_GE(r.total_seconds, clean.total_seconds);
  EXPECT_EQ(clean.fault_counts.messages, 0);  // empty spec: no injector
}

TEST(Harness, CorruptingFaultScheduleIsDetectedNotSilent) {
  Config cfg = small_config(Method::Layout, false);
  cfg.faults.corrupt = 1.0;
  cfg.faults.seed = 3;
  try {
    (void)run(cfg);
    FAIL() << "corrupted exchange completed without a diagnostic";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fault detected"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace brickx::harness
