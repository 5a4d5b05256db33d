// brickx_tune: the joint autotuner CLI (DESIGN.md §15). Describe one
// strong-scaling problem, search (layout × mapping × brick × page) against
// the virtual-clock cost model, and write the byte-deterministic
// tuned-config artifact any bench consumes via --tuned=FILE.
//
//   tools/brickx_tune --machine=theta -g 64 -n 16 --rpn=4 --out=tuned.json
//   bench/fig11_k2_strong_scaling --fabric=machine --tuned=tuned.json

#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/argparse.h"
#include "common/error.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "simmpi/cart.h"
#include "tune/tuner.h"

using namespace brickx;

namespace {

model::Machine machine_arg(const std::string& s) {
  if (s == "theta") return model::theta();
  if (s == "summit") return model::summit();
  if (s == "summit-future") return model::summit_future();
  const auto m = tune::machine_by_name(s);
  BX_CHECK(m.has_value(), "unknown --machine (see --help)");
  return *m;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser ap("brickx_tune",
               "Joint (layout x mapping x brick x page) autotuner against "
               "the contention-fabric cost model; writes a tuned-config "
               "JSON artifact for --tuned=FILE.");
  ap.add("--machine",
         "machine preset: theta | summit | summit-future (or the full "
         "preset name, e.g. theta-knl)",
         "theta");
  ap.add("-g", "global domain edge (cube), split across ranks", "64");
  ap.add("-n", "rank count (dims from dims_create)", "16");
  ap.add("--method", "YASK | MPI_Types | Basic | Layout | MemMap", "MemMap");
  ap.add("--gpu", "none | cuda-aware | unified | staged", "none");
  ap.add_flag("--use125", "125-point stencil instead of 7-point");
  ap.add("--fabric",
         "network model to tune against: machine (default, the preset's "
         "native topology) | flat | single-switch | fat-tree | torus | "
         "dragonfly",
         "machine");
  ap.add("--rpn",
         "override machine.net.ranks_per_node (0 = keep the preset's value)",
         "0");
  ap.add("--steps", "measured timesteps (0 = 8, or 4 under --use125)", "0");
  ap.add("--threads", "worker threads for candidate evaluation", "4");
  ap.add("--layout-budget", "optimize_layout hill-climb evaluations", "2000");
  ap.add("--layout-seed", "optimize_layout seed", "1");
  ap.add("--out", "artifact path", "tuned_config.json");
  ap.parse(argc, argv);
  BX_CHECK(ap.get_int("--layout-budget") >= 1,
           "--layout-budget must be at least 1");

  harness::Config problem;
  problem.machine = machine_arg(ap.get("--machine"));
  const std::int64_t g = ap.get_int("-g");
  const int ranks = static_cast<int>(ap.get_int("-n"));
  problem.rank_dims = mpi::dims_create<3>(ranks);
  problem.subdomain = Vec3::fill(g) / problem.rank_dims;
  BX_CHECK(problem.subdomain * problem.rank_dims == Vec3::fill(g),
           "global edge does not divide across this rank count");
  problem.brick = 8;
  problem.ghost = 8;
  problem.use125 = ap.get_flag("--use125");
  const auto method = tune::parse_method(ap.get("--method"));
  BX_CHECK(method.has_value(), "unknown --method (see --help)");
  problem.method = *method;
  const auto gpu = tune::parse_gpu(ap.get("--gpu"));
  BX_CHECK(gpu.has_value(), "unknown --gpu (see --help)");
  problem.gpu = *gpu;
  problem.timesteps = ap.get_int("--steps") > 0
                          ? static_cast<int>(ap.get_int("--steps"))
                          : (problem.use125 ? 4 : 8);
  problem.warmup_exchanges = 1;
  problem.execute_kernels = false;
  const std::string fabric = ap.get("--fabric");
  if (fabric == "machine") {
    problem.fabric = problem.machine.fabric;
  } else {
    const auto kind = netsim::parse_fabric(fabric);
    BX_CHECK(kind.has_value(), "unknown --fabric (see --help)");
    problem.fabric = *kind;
  }
  if (ap.get_int("--rpn") > 0)
    problem.machine.net.ranks_per_node = static_cast<int>(ap.get_int("--rpn"));

  std::printf("problem: %s\n", tune::canonical_key(problem).c_str());

  const tune::SearchSpace space = tune::SearchSpace::standard(
      problem, ap.get_int("--layout-budget"),
      static_cast<std::uint64_t>(ap.get_int("--layout-seed")));
  tune::EvalCache cache;
  const harness::Result handpicked = harness::run(problem);
  const tune::TuneResult res =
      tune::tune(problem, space, static_cast<int>(ap.get_int("--threads")),
                 &cache);

  Table t({"candidates", "distinct", "evaluated", "layout", "mapping",
           "brick", "page", "hand-picked ms", "tuned ms", "speedup"});
  t.row()
      .cell(res.candidates)
      .cell(res.distinct)
      .cell(res.evaluated)
      .cell(res.layout_name)
      .cell(netsim::map_name(res.mapping))
      .cell(res.brick)
      .cell(static_cast<std::int64_t>(res.page_size))
      .cell(handpicked.total_seconds * 1e3)
      .cell(res.best.total_seconds * 1e3)
      .cell(handpicked.total_seconds / res.best.total_seconds, 3);
  std::printf("%s\n", t.str().c_str());

  BX_CHECK(res.best.total_seconds <= handpicked.total_seconds,
           "tuned config is worse than the hand-picked baseline — the "
           "baseline point left the search space");

  // Replay the artifact before writing it: the recorded prediction must be
  // reproduced bit-exactly from the artifact alone.
  const harness::Result replay =
      harness::run(tune::tuned_config(res.artifact));
  BX_CHECK(replay.total_seconds == res.artifact.predicted_total_seconds,
           "artifact replay does not reproduce the predicted cost");

  const std::string out = ap.get("--out");
  BX_CHECK(tune::save_artifact(res.artifact, out),
           "cannot write the artifact file");
  std::printf("config hash 0x%016" PRIx64 "; replay verified bit-exact\n",
              res.artifact.config_hash);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
