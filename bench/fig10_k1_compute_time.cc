// Figure 10 (K1): per-timestep compute time for MPI_Types, YASK, Layout,
// MemMap, and No-Layout (fine-grained blocking in lexicographic order).
// Paper claim: block ordering makes no discernible difference to compute;
// YASK's autotuned two-level parallelism wins slightly at large subdomains
// and loses badly at small ones.

#include "bench_common.h"

using namespace brickx;
using namespace brickx::bench;
using harness::Method;

int main(int argc, char** argv) {
  ArgParser ap("fig10_k1_compute_time", "Fig 10: K1 compute time");
  ap.add("-s", "comma-separated subdomain dims", "128,64,32,16");
  add_obs_flags(ap);
  ap.parse(argc, argv);
  ObsGuard obs_guard(ap);

  banner("Figure 10",
         "(K1) Compute time (ms per timestep). No-Layout = bricks stored "
         "in lexicographic region order — compute is layout-agnostic.");

  Table t({"dim", "MPI_Types", "YASK", "Layout", "MemMap", "No-Layout"});
  for (std::int64_t s : ap.get_int_list("-s")) {
    const auto types = run(k1_config(s, Method::MpiTypes));
    const auto yask = run(k1_config(s, Method::Yask));
    const auto layout = run(k1_config(s, Method::Layout));
    const auto memmap = run(k1_config(s, Method::MemMap));
    auto nl_cfg = k1_config(s, Method::Basic);
    nl_cfg.layout = lexicographic_layout(3);
    const auto nolayout = run(nl_cfg);
    t.row()
        .cell(s)
        .cell(ms(types.calc.avg()))
        .cell(ms(yask.calc.avg()))
        .cell(ms(layout.calc.avg()))
        .cell(ms(memmap.calc.avg()))
        .cell(ms(nolayout.calc.avg()));
  }
  t.print(std::cout);
  std::printf(
      "\nShape checks vs paper: Layout == MemMap == No-Layout exactly "
      "(ordering cannot matter); YASK is slightly faster at 256 and slower "
      "below ~64 where its nested parallel overhead dominates.\n");
  return 0;
}
