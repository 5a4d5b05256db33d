#pragma once

// Shared scaffolding for the paper-reproduction bench binaries. Each bench
// regenerates one table or figure of the paper; see EXPERIMENTS.md for the
// per-experiment mapping and the scaled-down parameter choices.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "obs/analyze.h"
#include "obs/export.h"
#include "obs/session.h"
#include "simmpi/cart.h"
#include "tune/artifact.h"

namespace brickx::bench {

/// Paper experiments K1/V1 run 8 nodes (1 rank each) as a periodic 2^3
/// cube and sweep the per-rank subdomain. The paper sweeps 512..16; the
/// default here is 128..16 (pass -s 256,... for more — a 512^3
/// double-buffered subdomain does not fit in 16 GB eight times over, and
/// the shape statements all live in the small-subdomain half anyway).
inline std::vector<std::int64_t> default_k1_sizes() {
  return {128, 64, 32, 16};
}

inline harness::Config k1_config(std::int64_t subdomain, harness::Method m,
                                 bool use125 = false) {
  harness::Config cfg;
  cfg.machine = model::theta();
  cfg.rank_dims = {2, 2, 2};
  cfg.subdomain = Vec3::fill(subdomain);
  cfg.brick = 8;
  cfg.ghost = 8;
  cfg.use125 = use125;
  cfg.method = m;
  cfg.timesteps = use125 ? 4 : 8;  // exactly one exchange batch
  cfg.warmup_exchanges = 1;
  cfg.execute_kernels = false;  // benches time the model; tests validate math
  return cfg;
}

inline harness::Config v1_config(std::int64_t subdomain, harness::Method m,
                                 harness::GpuMode gpu, bool use125 = false) {
  harness::Config cfg = k1_config(subdomain, m, use125);
  cfg.machine = model::summit();
  cfg.gpu = gpu;
  return cfg;
}

/// Strong-scaling config: a fixed global domain split across `ranks`
/// processes (dims from dims_create). Per-rank extents must stay brick
/// aligned — the caller picks a global size that divides evenly.
inline harness::Config strong_config(const model::Machine& machine,
                                     const Vec3& global, int ranks,
                                     harness::Method m, harness::GpuMode gpu,
                                     bool use125) {
  harness::Config cfg;
  cfg.machine = machine;
  cfg.rank_dims = mpi::dims_create<3>(ranks);
  cfg.subdomain = global / cfg.rank_dims;
  BX_CHECK(cfg.subdomain * cfg.rank_dims == global,
           "global domain does not divide across this rank count");
  cfg.brick = 8;
  cfg.ghost = 8;
  cfg.use125 = use125;
  cfg.method = m;
  cfg.gpu = gpu;
  cfg.timesteps = use125 ? 4 : 8;
  cfg.warmup_exchanges = 1;
  cfg.execute_kernels = false;
  return cfg;
}

inline std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", seconds * 1e3);
  return buf;
}

inline std::string gsps(double gstencils) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", gstencils);
  return buf;
}

/// Standard bench banner: figure id, what the paper shows, what we print.
inline void banner(const char* id, const char* paper_claim) {
  std::printf("=== %s ===\n%s\n\n", id, paper_claim);
}

/// Register the shared fabric selection flags. Call before ap.parse().
inline void add_fabric_flags(ArgParser& ap) {
  ap.add("--fabric",
         "network model: flat (default, contention-free) | single-switch | "
         "fat-tree | torus | dragonfly | machine (the Machine's native "
         "topology)",
         "flat");
  ap.add("--mapping",
         "process-to-node mapping for non-flat fabrics: block | "
         "round-robin | greedy | rcb | embed",
         "block");
}

/// Apply --fabric/--mapping to a Config. "machine" resolves to the
/// machine's native topology (theta -> dragonfly, summit -> fat-tree).
inline void apply_fabric(const ArgParser& ap, harness::Config& cfg) {
  const std::string f = ap.get("--fabric");
  if (f == "machine") {
    cfg.fabric = cfg.machine.fabric;
  } else {
    const auto kind = netsim::parse_fabric(f);
    BX_CHECK(kind.has_value(), "unknown --fabric (see --help)");
    cfg.fabric = *kind;
  }
  const auto mapping = netsim::parse_mapping(ap.get("--mapping"));
  BX_CHECK(mapping.has_value(), "unknown --mapping (see --help)");
  cfg.mapping = *mapping;
}

/// Register the --tuned flag (tuned-config artifact consumption). Call
/// before ap.parse().
inline void add_tune_flags(ArgParser& ap) {
  ap.add("--tuned",
         "apply the (layout, mapping, brick, page) choice from a tuned-"
         "config JSON artifact written by tools/brickx_tune (default: keep "
         "the hand-picked configuration)",
         "");
}

/// Apply --tuned to a Config: load the artifact and overwrite the four
/// tuned levers. The problem section is NOT applied — the bench keeps its
/// own problem; the artifact only contributes the choice. Returns true if
/// an artifact was applied (callers print a provenance line so tuned
/// output never masquerades as the hand-picked golden output).
inline bool apply_tuned(const ArgParser& ap, harness::Config& cfg) {
  const std::string path = ap.get("--tuned");
  if (path.empty()) return false;
  const auto art = tune::load_artifact(path);
  BX_CHECK(art.has_value(), "cannot load --tuned artifact (missing file, "
                            "malformed JSON, or schema mismatch)");
  tune::apply_choice(*art, cfg);
  return true;
}

/// Print where an applied --tuned choice came from (once per bench).
inline void announce_tuned(const ArgParser& ap) {
  const std::string path = ap.get("--tuned");
  if (path.empty()) return;
  const auto art = tune::load_artifact(path);
  BX_CHECK(art.has_value(), "cannot load --tuned artifact");
  std::printf("tuned config: %s (layout=%s mapping=%s brick=%lld page=%zu)\n\n",
              path.c_str(), art->layout_name.c_str(),
              netsim::map_name(art->mapping),
              static_cast<long long>(art->brick), art->page_size);
}

/// Register the shared transport selection flags. Call before ap.parse().
inline void add_transport_flags(ArgParser& ap) {
  ap.add("--transport",
         "on-node transport tier: flat (default, every message rides the "
         "fabric path) | shm (same-node pairs short-circuit through shared "
         "memory) | shm-agg (shm + node-leader aggregation of inter-node "
         "sends; requires ranks_per_node > 1)",
         "flat");
  ap.add("--rpn",
         "override machine.net.ranks_per_node (0 = keep the machine model's "
         "value); lets single-rank-per-node machines exercise shm/shm-agg",
         "0");
}

/// Apply --transport/--rpn to a Config.
inline void apply_transport(const ArgParser& ap, harness::Config& cfg) {
  transport::Kind kind;
  BX_CHECK(transport::parse_kind(ap.get("--transport"), &kind),
           "unknown --transport (see --help)");
  cfg.transport = kind;
  const long rpn = std::strtol(ap.get("--rpn").c_str(), nullptr, 10);
  if (rpn > 0) cfg.machine.net.ranks_per_node = static_cast<int>(rpn);
}

/// Register the shared fault-injection flag. Call before ap.parse().
inline void add_fault_flags(ArgParser& ap) {
  ap.add("--faults",
         "seeded message-fault schedule, e.g. "
         "\"delay=0.3,seed=7,max-delay=1e-5\" (keys: delay drop duplicate "
         "reorder truncate corrupt seed max-delay; default none). Corrupting "
         "kinds abort the run with a \"fault detected\" diagnostic; "
         "delay/reorder only perturb virtual time",
         "none");
}

/// Apply --faults to a Config. Callers that loop over configs should print
/// the schedule once via announce_faults so output produced under injected
/// faults says so.
inline void apply_faults(const ArgParser& ap, harness::Config& cfg) {
  const auto spec = mpi::parse_fault_spec(ap.get("--faults"));
  BX_CHECK(spec.has_value(), "malformed --faults (see --help)");
  cfg.faults = *spec;
}

/// Print the active --faults schedule (nothing when it is empty, keeping
/// default output byte-identical for the golden regression tests).
inline void announce_faults(const ArgParser& ap) {
  const auto spec = mpi::parse_fault_spec(ap.get("--faults"));
  BX_CHECK(spec.has_value(), "malformed --faults (see --help)");
  if (spec->any())
    std::printf("fault schedule: %s\n\n", mpi::describe(*spec).c_str());
}

/// Register the shared observability flags. Call before ap.parse().
inline void add_obs_flags(ArgParser& ap) {
  ap.add("--trace-out",
         "write a Chrome trace-event JSON of every run (Perfetto-loadable)",
         "");
  ap.add("--metrics-out",
         "write merged metrics for every run (.csv for CSV, else JSON)", "");
  ap.add("--analyze-out",
         "write a critical-path / wait-state analysis of every run (.txt "
         "for the aligned-text report, else JSON)",
         "");
}

/// Collects the traces of all harness::run calls in the enclosing scope and
/// writes the requested artifacts on destruction. Inactive (no session, no
/// recording beyond the null/ambient defaults) when neither flag was given.
class ObsGuard {
 public:
  explicit ObsGuard(const ArgParser& ap)
      : trace_path_(ap.get("--trace-out")),
        metrics_path_(ap.get("--metrics-out")),
        analyze_path_(ap.get("--analyze-out")) {
    if (!trace_path_.empty() || !metrics_path_.empty() ||
        !analyze_path_.empty())
      scope_.emplace(session_);
  }
  ~ObsGuard() {
    if (!scope_) return;
    scope_.reset();  // deactivate before exporting
    bool first = true;
    if (!trace_path_.empty()) {
      obs::write_chrome_trace(session_, trace_path_);
      std::printf("\nwrote trace: %s\n", trace_path_.c_str());
      first = false;
    }
    if (!metrics_path_.empty()) {
      obs::write_metrics(session_, metrics_path_);
      std::printf("%swrote metrics: %s\n", first ? "\n" : "",
                  metrics_path_.c_str());
      first = false;
    }
    if (!analyze_path_.empty()) {
      obs::write_analysis(session_, analyze_path_);
      std::printf("%swrote analysis: %s\n", first ? "\n" : "",
                  analyze_path_.c_str());
    }
  }
  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

  [[nodiscard]] const obs::Session& session() const { return session_; }

 private:
  std::string trace_path_, metrics_path_, analyze_path_;
  obs::Session session_;
  std::optional<obs::Session::Scope> scope_;
};

}  // namespace brickx::bench
