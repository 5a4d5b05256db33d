// Ablation: the joint autotuner (src/tune, DESIGN.md §15) against the
// hand-picked fig11/fig16 strong-scaling configurations. For each problem
// the tuner searches (layout permutation × rank-to-node mapping × brick
// size × page size) under the machine's native routed fabric and must meet
// or beat the hand-picked point — which is a member of every search space,
// so this is a structural guarantee the self-check enforces bit-exactly.
// The run also proves the replay contract (the emitted artifact reproduces
// the predicted cost exactly) and the memo-cache contract (a warm retune
// re-evaluates nothing and emits byte-identical artifact JSON).
//
// Stdout is virtual-time only (golden-diffed); wall-clock throughput goes
// to --json-out=BENCH_autotune.json.

#include <chrono>
#include <fstream>

#include "bench_common.h"
#include "tune/tuner.h"

using namespace brickx;
using namespace brickx::bench;
using harness::GpuMode;
using harness::Method;

namespace {

struct Row {
  const char* label;
  model::Machine machine;
  std::int64_t global;
  int ranks;
  int rpn;
  Method method;
  GpuMode gpu;
  bool use125;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser ap("abl_autotune", "joint layout/mapping/brick/page autotuner "
                               "vs the hand-picked configs");
  ap.add("--threads", "worker threads per search", "4");
  ap.add("--layout-budget", "optimize_layout hill-climb evaluations", "2000");
  ap.add("--json-out", "write the BENCH_autotune.json trajectory", "");
  ap.add("--tuned-out", "write the first row's tuned-config artifact", "");
  ap.parse(argc, argv);
  BX_CHECK(ap.get_int("--layout-budget") >= 1,
           "--layout-budget must be at least 1");

  banner("Ablation: joint autotuner",
         "Tuned (layout, mapping, brick, page) vs the hand-picked fig11/"
         "fig16 strong-scaling configs on each machine's native fabric. "
         "The hand-picked point is inside every search space, so tuned <= "
         "hand-picked is enforced bit-exactly; each artifact is replayed "
         "and must reproduce its predicted cost, and a warm-cache retune "
         "must re-evaluate nothing yet emit identical artifact bytes.");

  const std::vector<Row> rows = {
      {"theta.MemMap.7pt", model::theta(), 64, 16, 4, Method::MemMap,
       GpuMode::None, false},
      {"theta.MemMap.125pt", model::theta(), 64, 16, 4, Method::MemMap,
       GpuMode::None, true},
      {"theta.YASK.7pt", model::theta(), 64, 16, 4, Method::Yask,
       GpuMode::None, false},
      {"summit.LayoutCA.7pt", model::summit(), 96, 12, 6, Method::Layout,
       GpuMode::CudaAware, false},
      {"summit.TypesUM.7pt", model::summit(), 96, 12, 6, Method::MpiTypes,
       GpuMode::Unified, false},
  };

  const int threads = static_cast<int>(ap.get_int("--threads"));
  const std::int64_t budget = ap.get_int("--layout-budget");

  Table t({"problem", "cands", "distinct", "layout", "mapping", "brick",
           "page", "hand_ms", "tuned_ms", "speedup", "replay", "warm"});
  struct Point {
    const char* label;
    std::int64_t candidates, distinct, evaluated;
    double hand_s, tuned_s, wall_s;
  };
  std::vector<Point> points;
  std::string first_artifact_json;
  bool ok = true;

  for (const Row& row : rows) {
    harness::Config problem =
        strong_config(row.machine, Vec3::fill(row.global), row.ranks,
                      row.method, row.gpu, row.use125);
    problem.machine.net.ranks_per_node = row.rpn;
    problem.fabric = problem.machine.fabric;

    const harness::Result hand = harness::run(problem);
    const tune::SearchSpace space =
        tune::SearchSpace::standard(problem, budget);
    tune::EvalCache cache;
    const auto t0 = std::chrono::steady_clock::now();
    const tune::TuneResult res = tune::tune(problem, space, threads, &cache);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // Self-check 1: tuned meets or beats hand-picked (exact comparison —
    // the hand-picked point is in the space, so >= cannot happen).
    const bool beats = res.best.total_seconds <= hand.total_seconds;
    // Self-check 2: the artifact alone reproduces the prediction bit-exact.
    const harness::Result replay =
        harness::run(tune::tuned_config(res.artifact));
    const bool replay_ok =
        replay.total_seconds == res.artifact.predicted_total_seconds &&
        replay.comm_per_step == res.artifact.predicted_comm_per_step &&
        replay.gstencils == res.artifact.predicted_gstencils;
    // Self-check 3: warm retune — zero evaluations, identical bytes.
    const tune::TuneResult warm = tune::tune(problem, space, threads, &cache);
    const bool warm_ok = warm.evaluated == 0 &&
                         tune::to_json(warm.artifact) ==
                             tune::to_json(res.artifact);
    // Self-check 4: JSON round-trip is byte-stable.
    const auto rt = tune::from_json(tune::to_json(res.artifact));
    const bool rt_ok =
        rt.has_value() && tune::to_json(*rt) == tune::to_json(res.artifact);
    ok = ok && beats && replay_ok && warm_ok && rt_ok;

    if (first_artifact_json.empty())
      first_artifact_json = tune::to_json(res.artifact);

    t.row()
        .cell(row.label)
        .cell(res.candidates)
        .cell(res.distinct)
        .cell(res.layout_name)
        .cell(netsim::map_name(res.mapping))
        .cell(res.brick)
        .cell(static_cast<std::int64_t>(res.page_size))
        .cell(hand.total_seconds * 1e3)
        .cell(res.best.total_seconds * 1e3)
        .cell(hand.total_seconds / res.best.total_seconds, 3)
        .cell(replay_ok && rt_ok ? "exact" : "FAIL")
        .cell(warm_ok ? "hit" : "FAIL");
    points.push_back({row.label, res.candidates, res.distinct, res.evaluated,
                      hand.total_seconds, res.best.total_seconds, wall});
  }
  t.print(std::cout);
  std::printf(
      "\nExpected: tuned_ms <= hand_ms on every row (the hand-picked point "
      "is in the search space), replay == exact (the artifact reproduces "
      "its prediction bit-for-bit), warm == hit (the memo cache answers a "
      "repeat search without a single re-evaluation). self-check: %s\n",
      ok ? "pass" : "FAIL");

  const std::string tuned_out = ap.get("--tuned-out");
  if (!tuned_out.empty()) {
    std::ofstream out(tuned_out);
    BX_CHECK(out.good(), "cannot open --tuned-out file");
    out << first_artifact_json;
    std::printf("wrote %s\n", tuned_out.c_str());
  }

  const std::string json = ap.get("--json-out");
  if (!json.empty()) {
    std::ofstream out(json);
    BX_CHECK(out.good(), "cannot open --json-out file");
    out << "{\n  \"schema\": \"brickx-bench-autotune-v1\",\n"
        << "  \"threads\": " << threads << ",\n  \"self_check\": "
        << (ok ? "true" : "false") << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      char buf[512];
      std::snprintf(
          buf, sizeof buf,
          "    {\"problem\": \"%s\", \"candidates\": %lld, \"distinct\": "
          "%lld, \"evaluated\": %lld, \"wall_s\": %.4f, \"cands_per_s\": "
          "%.2f, \"handpicked_s\": %.9e, \"tuned_s\": %.9e, \"speedup\": "
          "%.4f}%s\n",
          p.label, static_cast<long long>(p.candidates),
          static_cast<long long>(p.distinct),
          static_cast<long long>(p.evaluated), p.wall_s,
          p.wall_s > 0 ? static_cast<double>(p.evaluated) / p.wall_s : 0.0,
          p.hand_s, p.tuned_s, p.hand_s / p.tuned_s,
          i + 1 < points.size() ? "," : "");
      out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json.c_str());
  }
  return ok ? 0 : 1;
}
