// Prints every Result field (timing_bits, plus `validated`) of a fixed
// matrix of small harness runs, one `<config> <field> <value>` line each,
// so a golden diff names both the configuration and the field that moved.
// Values are bit patterns in hex: doubles compare exactly.
//
// The matrix (2x2x1 ranks, 16^3 cells, brick 4, ghost 4): every method at
// 7/125-point, then per method plan-per-round, 3 fields, dragonfly with the
// greedy mapping, shm and shm-agg at 2 ranks per node and delay+reorder
// faults; overlap for Basic/Layout/MemMap; and the summit GPU modes.
//
// `--timing-only` runs the same matrix with execute_kernels = false and
// omits the `validated` lines: every timing line must match the executed
// run's bit for bit, because no modeled cost reads a field value.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "result_bits.h"

using namespace brickx;
using namespace brickx::harness;

namespace {

struct Case {
  std::string name;
  Config cfg;
};

Config base(Method m, bool use125) {
  Config cfg;
  cfg.machine = model::theta();
  cfg.rank_dims = {2, 2, 1};
  cfg.subdomain = {16, 16, 16};
  cfg.brick = 4;
  cfg.ghost = 4;
  cfg.use125 = use125;
  cfg.method = m;
  cfg.timesteps = use125 ? 4 : 8;
  cfg.warmup_exchanges = 1;
  cfg.validate = true;
  return cfg;
}

std::vector<Case> matrix() {
  const Method methods[] = {Method::Yask,   Method::MpiTypes, Method::Basic,
                            Method::Layout, Method::MemMap,   Method::Shift,
                            Method::Network};
  std::vector<Case> cases;
  auto add = [&](Method m, const std::string& tag, auto&& edit) {
    Config cfg = base(m, false);
    edit(cfg);
    cases.push_back({std::string(method_name(m)) + "_" + tag, cfg});
  };
  for (const Method m : methods)
    for (const bool use125 : {false, true})
      add(m, use125 ? "125pt" : "7pt", [&](Config& c) { c = base(m, use125); });
  for (const Method m : methods) {
    add(m, "per_round", [](Config& c) { c.plan = PlanMode::PerRound; });
    add(m, "fields3", [](Config& c) { c.fields = 3; });
    add(m, "df_greedy", [](Config& c) {
      c.fabric = netsim::FabricKind::Dragonfly;
      c.mapping = netsim::MapKind::Greedy;
    });
    add(m, "shm", [](Config& c) {
      c.machine.net.ranks_per_node = 2;
      c.transport = transport::Kind::Shm;
    });
    add(m, "shm_agg", [](Config& c) {
      c.machine.net.ranks_per_node = 2;
      c.transport = transport::Kind::ShmAgg;
    });
    add(m, "delay_reorder_faults", [](Config& c) {
      c.faults.delay = 0.5;
      c.faults.reorder = 0.5;
      c.faults.seed = 5;
    });
  }
  for (const Method m : {Method::Basic, Method::Layout, Method::MemMap})
    add(m, "overlap", [](Config& c) { c.overlap = true; });
  auto summit = [](GpuMode mode) {
    return [mode](Config& c) {
      c.machine = model::summit();
      c.machine.net.ranks_per_node = 2;
      c.gpu = mode;
    };
  };
  add(Method::Layout, "summit_ca", summit(GpuMode::CudaAware));
  add(Method::Layout, "summit_um", summit(GpuMode::Unified));
  add(Method::MemMap, "summit_um", summit(GpuMode::Unified));
  add(Method::MpiTypes, "summit_um", summit(GpuMode::Unified));
  add(Method::Yask, "summit_staged", summit(GpuMode::Staged));
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  const bool timing_only =
      argc > 1 && std::strcmp(argv[1], "--timing-only") == 0;
  for (Case& c : matrix()) {
    if (timing_only) c.cfg.execute_kernels = false;
    const Result r = run(c.cfg);
    for (const auto& [field, value] : timing_bits(r))
      std::printf("%s %s %016" PRIx64 "\n", c.name.c_str(), field.c_str(),
                  value);
    if (!timing_only)
      std::printf("%s validated %d\n", c.name.c_str(), r.validated ? 1 : 0);
  }
  return 0;
}
