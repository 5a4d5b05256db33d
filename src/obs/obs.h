#pragma once

// Observability core: a per-rank span tracer and metrics registry stamped
// on the simmpi *virtual* clock, so traces and metrics are as deterministic
// as the simulation itself (same Config => byte-identical artifacts).
//
// Layering: obs depends only on common. simmpi, memmap, gpusim and harness
// all emit into it through an ambient per-thread binding (one rank thread =
// one RankLog), so deep library code needs no plumbed-through handles.
//
// Compile-time gate: BRICKX_OBS (default 1; configure with
// -DBRICKX_OBS=OFF). When 0, every type in this header collapses to an
// inline no-op null sink — callers compile unchanged and the layer costs
// nothing at runtime.

#ifndef BRICKX_OBS
#define BRICKX_OBS 1
#endif

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace brickx::obs {

/// Span categories, mirroring the paper's phase vocabulary: the harness's
/// calc/pack/call/wait breakdown plus the on-node data-movement phases the
/// paper attributes time to (datatype packing, mmap view setup, unified-
/// memory page migration) and collectives.
enum class Cat : std::uint8_t {
  Calc,
  Pack,
  Call,
  Wait,
  DtPack,
  MmapSetup,
  UmMigrate,
  Collective,
  Setup,   ///< exchange-plan construction (build-once or forced replan)
  OnNode,  ///< transport-tier on-node movement (view copies, frame staging)
};
inline constexpr int kCatCount = 10;

/// Stable lowercase category string ("calc", "dt_pack", ...).
inline const char* cat_name(Cat c) {
  switch (c) {
    case Cat::Calc:
      return "calc";
    case Cat::Pack:
      return "pack";
    case Cat::Call:
      return "call";
    case Cat::Wait:
      return "wait";
    case Cat::DtPack:
      return "dt_pack";
    case Cat::MmapSetup:
      return "mmap_setup";
    case Cat::UmMigrate:
      return "um_migrate";
    case Cat::Collective:
      return "collective";
    case Cat::Setup:
      return "setup";
    case Cat::OnNode:
      return "onnode";
  }
  return "?";
}

/// One closed span on a rank's timeline. Times are virtual seconds.
struct SpanEvent {
  Cat cat;
  const char* name;   ///< static-lifetime label
  std::int64_t step;  ///< harness timestep for measured phase spans; -1 else
  int depth;          ///< nesting depth at open (0 = top level)
  double t0 = 0.0;
  double t1 = 0.0;
};

/// One point-to-point message, recorded sender-side. Exported as flow
/// arrows in Chrome traces.
struct FlowEvent {
  int src;
  int dst;
  int tag;
  std::uint64_t bytes;
  double depart;  ///< sender NIC finished injecting
  double arrive;  ///< receiver-visible arrival of the last byte
  /// Virtual time the send was posted (depart − post = NIC queueing +
  /// injection). The defaulted tail is appended in declaration order so
  /// older aggregate initializers still compile.
  double post = 0.0;
  double inject_start = 0.0;    ///< first byte entered the sender NIC
  double inject_nominal = 0.0;  ///< bytes / endpoint bw (uncontended inject)
  double fault_delay = 0.0;     ///< injected Delay seconds inside `arrive`
  double sharing = 1.0;         ///< peak link-sharing factor on the route
  bool onnode = false;          ///< took the on-node shared-memory tier
  /// Sub-messages in the aggregation frame this message rode in (0 when it
  /// was not aggregated).
  int agg_subs = 0;
  /// Partition index when this flow carries one partition of a partitioned
  /// request (-1 for whole-message traffic). Partition-granularity flow
  /// arrows are what let the analyzer convert overlap headroom into
  /// measured hiding.
  int part = -1;
};

/// One matched receive, recorded receiver-side at the wait() that consumed
/// it. Self-contained: the sender-side timeline (post → inject → arrival)
/// rides in on the envelope, so the analyzer never has to re-pair flows
/// across ranks (robust under reorder faults). Times are virtual seconds.
struct RecvEvent {
  int src = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  double post = 0.0;            ///< sender clock when the send was posted
  double inject_start = 0.0;    ///< first byte entered the sender NIC
  double depart = 0.0;          ///< sender NIC finished injecting
  double inject_nominal = 0.0;  ///< bytes / endpoint bw (uncontended inject)
  double arrive = 0.0;          ///< raw arrival (fault delay included)
  double fault_delay = 0.0;     ///< injected Delay seconds inside `arrive`
  double sharing = 1.0;         ///< peak link-sharing factor on the route
  double wait_start = 0.0;      ///< receiver clock when wait() matched
  double avail = 0.0;           ///< arrive + receiver memory-space latency
  bool onnode = false;          ///< took the on-node shared-memory tier
  /// Receiver-side aggregation unpack seconds inside `arrive` (cumulative
  /// over the frame's sub table up to and including this sub; 0 when the
  /// message was not aggregated).
  double agg_unpack = 0.0;
  /// Partition index when this receive consumed one partition of a
  /// partitioned request (-1 for whole-message receives). Each consumed
  /// partition records its own event, so message edges in the causality
  /// DAG carry partition granularity for free.
  int part = -1;
};

/// One collective rendezvous on a rank's timeline. All ranks record the
/// same ordinal for the same collective (collectives are global and every
/// rank participates), which is what lets the analyzer align the n-th
/// entries across ranks into one barrier edge.
struct CollEvent {
  double entry = 0.0;  ///< this rank's clock entering the collective
  double exit = 0.0;   ///< synchronized clock leaving it (same on all ranks)
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Hist };

/// A named metric: monotonic counter, max-gauge, or Stats-backed histogram.
struct Metric {
  MetricKind kind = MetricKind::Counter;
  std::int64_t value = 0;  ///< counter sum
  double gauge = 0.0;      ///< max-gauge watermark
  Stats hist;
};

#if BRICKX_OBS

/// Event log of one rank. Single-writer: only that rank's thread appends,
/// so recording is lock-free and ordering is deterministic.
class RankLog {
 public:
  /// Open a span at t0; returns a stable index for close_span.
  std::size_t open_span(Cat cat, const char* name, std::int64_t step,
                        double t0);
  void close_span(std::size_t idx, double t1);
  /// Record an already-closed span [t0, t1] at the current depth.
  void note_span(Cat cat, const char* name, double t0, double t1);

  void flow(const FlowEvent& f) { flows_.push_back(f); }
  void recv(const RecvEvent& r) { recvs_.push_back(r); }
  void collective(const CollEvent& c) { colls_.push_back(c); }

  void counter_add(std::string_view name, std::int64_t v);
  void gauge_max(std::string_view name, double v);
  void hist_add(std::string_view name, double v);

  [[nodiscard]] const std::vector<SpanEvent>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<FlowEvent>& flows() const { return flows_; }
  [[nodiscard]] const std::vector<RecvEvent>& recvs() const { return recvs_; }
  [[nodiscard]] const std::vector<CollEvent>& collectives() const {
    return colls_;
  }
  [[nodiscard]] const std::map<std::string, Metric, std::less<>>& metrics()
      const {
    return metrics_;
  }
  [[nodiscard]] int depth() const { return depth_; }

 private:
  Metric& metric(std::string_view name, MetricKind kind);

  int depth_ = 0;
  std::vector<SpanEvent> spans_;
  std::vector<FlowEvent> flows_;
  std::vector<RecvEvent> recvs_;
  std::vector<CollEvent> colls_;
  std::map<std::string, Metric, std::less<>> metrics_;
};

/// One RankLog per rank of a simulated job. Install on a Runtime with
/// Runtime::set_collector; the harness creates one per experiment.
class Collector {
 public:
  explicit Collector(int nranks)
      : logs_(static_cast<std::size_t>(nranks)) {}

  [[nodiscard]] int nranks() const { return static_cast<int>(logs_.size()); }
  [[nodiscard]] RankLog& log(int rank) {
    return logs_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const RankLog& log(int rank) const {
    return logs_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] std::vector<RankLog> take_logs() { return std::move(logs_); }

 private:
  std::vector<RankLog> logs_;
};

/// --- ambient binding ------------------------------------------------------
/// Each rank thread is bound to (its RankLog, a pointer into its VClock's
/// time). Library code then emits spans/metrics with no handle plumbing.

void bind(RankLog* log, const double* vnow);
void unbind();
[[nodiscard]] RankLog* ambient_log();
/// Current virtual time of the bound clock (0 when unbound).
[[nodiscard]] double ambient_now();

class BindGuard {
 public:
  BindGuard(RankLog* log, const double* vnow) { bind(log, vnow); }
  ~BindGuard() { unbind(); }
  BindGuard(const BindGuard&) = delete;
  BindGuard& operator=(const BindGuard&) = delete;
};

/// RAII span on the ambient log; a no-op when the thread is unbound.
/// `step` tags harness phase spans with their timestep (see phase_sum).
class ObsSpan {
 public:
  explicit ObsSpan(Cat cat, const char* name = nullptr,
                   std::int64_t step = -1);
  ~ObsSpan();
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  RankLog* log_ = nullptr;
  std::size_t idx_ = 0;
};

/// Record a span [now, now + seconds] for a cost computed *before* the
/// caller advances the clock by it (the gpusim touch-hook pattern).
/// Records nothing when seconds == 0 or the thread is unbound.
void note_cost(Cat cat, const char* name, double seconds);

/// Zero-duration marker span at the current virtual time.
void instant(Cat cat, const char* name);

/// Ambient metrics; no-ops when the thread is unbound.
void counter_add(std::string_view name, std::int64_t v);
void gauge_max(std::string_view name, double v);
void hist_add(std::string_view name, double v);

/// Sum the durations of top-level phase spans matching (cat, name) with
/// step >= 0, grouping per step: each step's spans are summed first, then
/// added to the running total. This mirrors the harness's original
/// per-step `out.phase += (a) + (b)` accumulation order exactly, so phase
/// aggregates computed from spans are bit-identical to the seed's.
double phase_sum(const RankLog& log, Cat cat, const char* name);

/// Merge per-rank metrics (counters sum, gauges max, hists Stats::merge)
/// in rank order — deterministic.
std::map<std::string, Metric, std::less<>> merged_metrics(
    const std::vector<RankLog>& logs);

#else  // !BRICKX_OBS — null sink: same API, nothing recorded.

class RankLog {
 public:
  std::size_t open_span(Cat, const char*, std::int64_t, double) { return 0; }
  void close_span(std::size_t, double) {}
  void note_span(Cat, const char*, double, double) {}
  void flow(const FlowEvent&) {}
  void recv(const RecvEvent&) {}
  void collective(const CollEvent&) {}
  void counter_add(std::string_view, std::int64_t) {}
  void gauge_max(std::string_view, double) {}
  void hist_add(std::string_view, double) {}
  [[nodiscard]] const std::vector<SpanEvent>& spans() const {
    static const std::vector<SpanEvent> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] const std::vector<FlowEvent>& flows() const {
    static const std::vector<FlowEvent> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] const std::vector<RecvEvent>& recvs() const {
    static const std::vector<RecvEvent> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] const std::vector<CollEvent>& collectives() const {
    static const std::vector<CollEvent> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] const std::map<std::string, Metric, std::less<>>& metrics()
      const {
    static const std::map<std::string, Metric, std::less<>> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] int depth() const { return 0; }
};

class Collector {
 public:
  explicit Collector(int nranks) : nranks_(nranks) {}
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] RankLog& log(int) { return log_; }
  [[nodiscard]] const RankLog& log(int) const { return log_; }
  [[nodiscard]] std::vector<RankLog> take_logs() { return {}; }

 private:
  int nranks_;
  RankLog log_;
};

inline void bind(RankLog*, const double*) {}
inline void unbind() {}
inline RankLog* ambient_log() { return nullptr; }
inline double ambient_now() { return 0.0; }

class BindGuard {
 public:
  BindGuard(RankLog*, const double*) {}
  ~BindGuard() {}
  BindGuard(const BindGuard&) = delete;
  BindGuard& operator=(const BindGuard&) = delete;
};

class ObsSpan {
 public:
  explicit ObsSpan(Cat, const char* = nullptr, std::int64_t = -1) {}
  ~ObsSpan() {}
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;
};

inline void note_cost(Cat, const char*, double) {}
inline void instant(Cat, const char*) {}
inline void counter_add(std::string_view, std::int64_t) {}
inline void gauge_max(std::string_view, double) {}
inline void hist_add(std::string_view, double) {}
inline double phase_sum(const RankLog&, Cat, const char*) { return 0.0; }
inline std::map<std::string, Metric, std::less<>> merged_metrics(
    const std::vector<RankLog>&) {
  return {};
}

#endif  // BRICKX_OBS

}  // namespace brickx::obs
