#include "gates.h"

#include <cstring>

namespace perfbench {

using brickx::harness::Config;
using brickx::harness::Method;
using brickx::harness::Result;

void Tally::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

bool Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
  return ok;
}

namespace {

void push_stats(std::vector<double>& v, const brickx::Stats& s) {
  v.insert(v.end(), {s.min(), s.avg(), s.max(), s.sigma(),
                     static_cast<double>(s.count())});
}

std::vector<double> flatten(const Result& r) {
  std::vector<double> v;
  for (const brickx::Stats* s : {&r.calc, &r.pack, &r.call, &r.wait,
                                 &r.plan_setup})
    push_stats(v, *s);
  const auto& t = r.transport_stats;
  const auto& f = r.fault_counts;
  v.insert(v.end(),
           {r.total_seconds, r.calc_per_step, r.comm_per_step, r.gstencils,
            double(r.msgs_per_rank), double(r.wire_bytes_per_rank),
            double(r.payload_bytes_per_rank), r.padding_percent,
            double(r.msgs_recv_per_rank), double(r.bytes_recv_per_rank),
            double(r.max_inflight_reqs), r.setup_seconds, r.replan_per_step,
            double(r.plan_builds_per_rank), double(r.validated), r.avg_hops,
            r.queue_s_per_msg, r.max_link_sharing, r.busiest_link_util,
            double(r.fabric_msgs), double(r.msgs_intra_per_rank),
            double(r.msgs_inter_per_rank), double(r.bytes_intra_per_rank),
            double(r.bytes_inter_per_rank), double(t.onnode_msgs),
            double(t.onnode_bytes), double(t.onnode_copies),
            double(t.agg_frames), double(t.agg_submsgs),
            double(t.agg_frame_bytes), double(f.messages), double(f.injected()),
            double(f.detected), double(f.leftover)});
  return v;
}

bool bit_identical(const Result& a, const Result& b) {
  const std::vector<double> x = flatten(a), y = flatten(b);
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Sends per rank per exchange the DiffOracle requires of each method
/// (src/check/oracle.h) when no surface region is empty.
std::int64_t oracle_msgs(Method m) {
  switch (m) {
    case Method::Basic:
      return 98;
    case Method::Layout:
      return 42;
    default:
      return 26;
  }
}

void sweep_gate(const std::vector<Item>& deck, Tally& tally, GateOut& out) {
  for (std::size_t i = 0; i < deck.size(); ++i) {
    const Item& it = deck[i];
    Result a, b;
    out.usable[i] =
        tally.attempt(it.label, [&] { a = brickx::harness::run(it.cfg); }) &&
        tally.attempt(it.label, [&] { b = brickx::harness::run(it.cfg); }) &&
        tally.check(bit_identical(a, b),
                    it.label + ": Result differs between two runs") &&
        tally.check(a.msgs_per_rank == oracle_msgs(it.cfg.method),
                    it.label + ": " + std::to_string(a.msgs_per_rank) +
                        " msgs per rank, oracle expects " +
                        std::to_string(oracle_msgs(it.cfg.method)));
    out.results[i] = a;
  }
}

void exec_gate(const std::vector<Item>& deck, Tally& tally, GateOut& out) {
  for (std::size_t i = 0; i < deck.size(); ++i) {
    const Item& it = deck[i];
    Config cfg = it.cfg;
    cfg.validate = true;
    Result r;
    out.usable[i] =
        tally.attempt(it.label, [&] { r = brickx::harness::run(cfg); }) &&
        tally.check(r.validated,
                    it.label + ": does not match the global reference");
    out.results[i] = r;
  }
}

void tune_gate(const std::vector<Item>& deck,
               const std::vector<TuneProblem>& problems, Tally& tally,
               GateOut& out) {
  out.tuned.resize(deck.size());
  out.hand.resize(deck.size());
  brickx::tune::EvalCache cache;
  for (std::size_t i = 0; i < deck.size(); ++i) {
    const Item& it = deck[i];
    brickx::tune::TuneResult& tr = out.tuned[i];
    Result& won = out.results[i];
    Result& hand = out.hand[i];
    out.usable[i] =
        i < problems.size() &&
        tally.attempt(it.label, [&] {
          tr = brickx::tune::tune(it.cfg, problems[i].space, 1, &cache);
        }) &&
        tally.attempt(it.label + " winner",
                      [&] { won = brickx::harness::run(tr.best_config); }) &&
        tally.attempt(it.label + " hand-picked",
                      [&] { hand = brickx::harness::run(it.cfg); }) &&
        tally.check(won.total_seconds == tr.best.total_seconds,
                    it.label + ": winner does not replay to its makespan") &&
        tally.check(tr.best.total_seconds <= hand.total_seconds,
                    it.label + ": tuned is slower than hand-picked");
  }
  out.cache_hits = cache.stats().hits;
}

}  // namespace

GateOut run_gate(Workload w, const std::vector<Item>& deck,
                 const std::vector<TuneProblem>& problems, Tally& tally) {
  GateOut out;
  out.usable.assign(deck.size(), false);
  out.results.resize(deck.size());
  switch (w) {
    case Workload::Sweep:
      sweep_gate(deck, tally, out);
      break;
    case Workload::Exec:
      exec_gate(deck, tally, out);
      break;
    case Workload::Tune:
      tune_gate(deck, problems, tally, out);
      break;
  }
  return out;
}

double vt_total_ms(const std::vector<Item>& deck, const GateOut& g) {
  double s = 0;
  for (std::size_t i = 0; i < deck.size(); ++i)
    if (g.usable[i]) s += g.results[i].total_seconds * 1e3;
  return s;
}

double vt_comm_ms(const std::vector<Item>& deck, const GateOut& g) {
  double s = 0;
  for (std::size_t i = 0; i < deck.size(); ++i)
    if (g.usable[i])
      s += g.results[i].comm_per_step * deck[i].cfg.timesteps * 1e3;
  return s;
}

}  // namespace perfbench
