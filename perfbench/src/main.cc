// brickx_perf: the repository benchmark. One process, one client, closed
// loop: experiments run one after another through the public entry points
// harness::run and tune::tune. See README.md for the workloads and metrics.
//
//   brickx_perf --workload sweep|tune|exec --seed N --seconds S --trace 0|1
//               [--trace-out FILE] [--inject-invalid]

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "decks.h"
#include "gates.h"
#include "replay.h"
#include "report.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using brickx::harness::Result;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of every thread of the process, exited rank threads
/// included. Host-time metrics use this clock: on a shared host, time the
/// hypervisor gives to other guests inflates wall time several-fold but CPU
/// time far less (README.md, "Run conditions").
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU time since construction.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_now();
  [[nodiscard]] double wall() const { return seconds_since(wall0); }
  [[nodiscard]] double cpu() const { return cpu_now() - cpu0; }
};

struct Args {
  Workload workload = Workload::Sweep;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool inject_invalid = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "brickx_perf: %s\nusage: brickx_perf --workload sweep|tune|exec "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--inject-invalid]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_w = false, have_seed = false, have_s = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--inject-invalid") {
      a.inject_invalid = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage("unknown workload");
      a.workload = *w;
      have_w = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_s = *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (!have_w || !have_seed || !have_s)
    usage("--workload, --seed and a positive --seconds are required");
  return a;
}

/// setup_s: host CPU time to a first result, per deck item. A first result is
/// one run cut to one exchange batch with no warm-up; on `tune` it is the
/// search space (layout hill-climb) plus the first candidate's evaluation.
/// The whole deck is set up kSetupReps times, the first time cold (before
/// the gate warms anything), and the median per-item mean is reported. The
/// tuner's spaces are kept for the gate and the loop.
constexpr int kSetupReps = 5;

double measure_setup(const Args& a, const std::vector<Item>& deck,
                     std::vector<TuneProblem>& problems, Tally& tally) {
  std::vector<double> per_item;
  problems.resize(deck.size());
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double total = 0;
    int ok = 0;
    for (std::size_t i = 0; i < deck.size(); ++i) {
      const Item& it = deck[i];
      const Stopwatch sw;
      if (!tally.attempt(it.label + " set-up", [&] {
            if (a.workload != Workload::Tune) {
              (void)brickx::harness::run(first_result_cut(it.cfg));
              return;
            }
            TuneProblem& p = problems[i];
            p.space = brickx::tune::SearchSpace::standard(
                it.cfg, 2000, hill_climb_seed(a.seed, it));
            p.first_candidate = it.cfg;
            p.first_candidate.layout = p.space.layouts[0].spec;
            p.first_candidate.mapping = p.space.mappings[0];
            p.first_candidate.brick = p.space.bricks[0];
            p.first_candidate.page_size = p.space.pages[0];
            (void)brickx::harness::run(p.first_candidate);
          }))
        continue;
      total += sw.cpu();
      ++ok;
    }
    if (ok > 0) per_item.push_back(total / ok);
  }
  return median(per_item);
}

/// glibc's dynamic mmap threshold and heap trimming settle differently in
/// each process: with them, one binary's `sweep` pass time fell into one of
/// two modes 40% apart from process to process, the difference all in sys
/// time (page faults). Fixed thresholds keep every run in one mode.
/// Allocations above 32 MiB still go to mmap.
void pin_malloc() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

struct Loop {
  std::vector<double> samples;  ///< CPU s per experiment (per candidate)
  std::vector<double> wall_samples;  ///< the same experiments' wall s
  std::int64_t calls = 0;            ///< harness::run or tune::tune calls
  double busy_s = 0;                 ///< CPU s of all calls
  double cells = 0;
  std::int64_t experiments = 0;
  int passes = 0;
  double wall_s = 0, user_s = 0, sys_s = 0;  ///< whole loop, whole process
  std::vector<double> pass_s;
};

double cpu_seconds(bool user) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const timeval& t = user ? ru.ru_utime : ru.ru_stime;
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

/// Whole passes over the usable deck until `seconds` have elapsed. Every
/// run is checked against the gate's reference (vt is deterministic).
Loop measure(const Args& a, const std::vector<Item>& deck,
             const std::vector<TuneProblem>& problems, const GateOut& gate,
             Tally& tally) {
  Loop l;
  if (std::find(gate.usable.begin(), gate.usable.end(), true) ==
      gate.usable.end())
    return l;
  const auto start = Clock::now();
  const double user0 = cpu_seconds(true), sys0 = cpu_seconds(false);
  while (l.passes == 0 || seconds_since(start) < a.seconds) {
    const auto pass0 = Clock::now();
    brickx::tune::EvalCache cache;
    for (std::size_t i = 0; i < deck.size(); ++i) {
      if (!gate.usable[i]) continue;
      const Item& it = deck[i];
      if (a.workload == Workload::Tune) {
        brickx::tune::TuneResult tr;
        const Stopwatch sw;
        if (!tally.attempt(it.label, [&] {
              tr = brickx::tune::tune(it.cfg, problems[i].space, 1, &cache);
            }))
          continue;
        const double dt = sw.cpu(), wall = sw.wall();
        const auto& ref = gate.tuned[i];
        tally.check(tr.best_index == ref.best_index &&
                        tr.best.total_seconds == ref.best.total_seconds,
                    it.label + ": search result differs from the gate's");
        if (tr.evaluated <= 0) continue;
        // Candidates are timed only as a whole call: each evaluated
        // candidate is one sample at its call's mean cost.
        const auto n = static_cast<std::size_t>(tr.evaluated);
        l.samples.insert(l.samples.end(), n, dt / static_cast<double>(n));
        l.wall_samples.insert(l.wall_samples.end(), n,
                              wall / static_cast<double>(n));
        l.busy_s += dt;
        l.cells += cell_updates(it.cfg) * static_cast<double>(tr.evaluated);
        l.experiments += tr.evaluated;
        ++l.calls;
      } else {
        Result r;
        const Stopwatch sw;
        if (!tally.attempt(it.label,
                           [&] { r = brickx::harness::run(it.cfg); }))
          continue;
        const double dt = sw.cpu();
        l.wall_samples.push_back(sw.wall());
        tally.check(r.total_seconds == gate.results[i].total_seconds,
                    it.label + ": makespan differs from the gate's");
        l.samples.push_back(dt);
        l.busy_s += dt;
        l.cells += cell_updates(it.cfg);
        ++l.experiments;
        ++l.calls;
      }
    }
    ++l.passes;
    l.pass_s.push_back(seconds_since(pass0));
  }
  l.wall_s = seconds_since(start);
  l.user_s = cpu_seconds(true) - user0;
  l.sys_s = cpu_seconds(false) - sys0;
  return l;
}

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
  pin_malloc();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  std::printf("provenance: %s\n", provenance_json().c_str());

  std::vector<Item> deck = make_deck(a.workload, a.seed);
  if (a.inject_invalid)
    deck.push_back(invalid_item(static_cast<int>(deck.size())));
  for (const Item& it : deck) std::printf("  config %2d: %s\n", it.id,
                                          it.label.c_str());

  Tally tally;
  std::vector<TuneProblem> problems;
  const double setup_s = measure_setup(a, deck, problems, tally);
  const GateOut gate = run_gate(a.workload, deck, problems, tally);

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = traced_layers(a.workload, deck, problems, gate, a.seed,
                            a.trace_out, tally);
  } else {
    const Loop l = measure(a, deck, problems, gate, tally);
    const int tp = tail_percentile(static_cast<std::size_t>(l.calls));
    std::printf("samples: %zu %s from %lld calls over %d passes; "
                "run_s_tail is p%d; wall s per experiment p50 %.6f p%d "
                "%.6f\n",
                l.samples.size(),
                a.workload == Workload::Tune ? "candidates" : "experiments",
                static_cast<long long>(l.calls), l.passes, tp,
                median(l.wall_samples), tp, percentile(l.wall_samples, tp));
    if (!l.pass_s.empty())
      std::printf("loop: wall %.3f s, user %.3f s, sys %.3f s; pass s min "
                  "%.4f median %.4f max %.4f\n",
                  l.wall_s, l.user_s, l.sys_s,
                  *std::min_element(l.pass_s.begin(), l.pass_s.end()),
                  median(l.pass_s),
                  *std::max_element(l.pass_s.begin(), l.pass_s.end()));
    const double busy = l.busy_s > 0 ? l.busy_s : 1.0;
    metrics = {
        {"run_s_p50", median(l.samples), "s"},
        {"run_s_tail", percentile(l.samples, tp), "s"},
        {"setup_s", setup_s, "s"},
        {"sim_mcells_per_s", l.cells / busy / 1e6, "Mcell/s"},
        {"cands_per_s", static_cast<double>(l.experiments) / busy, "1/s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"vt_total_ms", vt_total_ms(deck, gate), "vt_ms"},
        {"vt_comm_ms", vt_comm_ms(deck, gate), "vt_ms"},
    };
  }
  const double fail_frac =
      tally.attempted ? static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted)
                      : 1.0;
  if (!a.trace) metrics.push_back({"ok_frac", 1.0 - fail_frac, "ratio"});
  for (const std::string& f : tally.failures)
    std::printf("FAILED: %s\n", f.c_str());
  std::printf("fail_frac: %.6f (%lld of %lld operations)\n", fail_frac,
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
