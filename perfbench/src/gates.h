#pragma once

// Correctness gates. Each runs once per invocation, untimed, and doubles as
// the warm-up; every operation it attempts is counted, and a throw or a
// failed check counts as a failure instead of ending the run.

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "decks.h"
#include "harness/experiment.h"
#include "tune/tuner.h"

namespace perfbench {

/// Operations attempted and failed, feeding `fail_frac`.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnoses

  void fail(const std::string& why);

  /// Run `op`, counting one attempt; a throw is one failure. Returns
  /// whether `op` returned normally.
  template <typename F>
  bool attempt(const std::string& what, F&& op) {
    ++attempted;
    try {
      op();
      return true;
    } catch (const std::exception& e) {
      fail(what + ": " + e.what());
    } catch (...) {
      fail(what + ": unknown exception");
    }
    return false;
  }

  /// Count one attempted check; false is one failure.
  bool check(bool ok, const std::string& what);
};

/// The tuner's inputs for one `tune` problem, built during set-up.
struct TuneProblem {
  brickx::tune::SearchSpace space;
  brickx::harness::Config first_candidate;
};

struct GateOut {
  /// Per item: passed, so the measured loop may run it.
  std::vector<bool> usable;
  /// Per item: the reference Result (on `tune`, the replayed winner's).
  std::vector<brickx::harness::Result> results;
  /// `tune` only: per item, the search outcome and the hand-picked run.
  std::vector<brickx::tune::TuneResult> tuned;
  std::vector<brickx::harness::Result> hand;
  std::int64_t cache_hits = 0;
};

/// sweep: every Result field bit-identical across two runs, message counts
/// equal to the DiffOracle identities (98 Basic / 42 Layout / 26 MemMap, and
/// 26 for the Network floor and each array baseline).
/// exec: every config runs once with validate = true and must validate.
/// tune: the winner replays to its recorded makespan and is no slower than
/// the hand-picked config. `problems` is indexed like `deck`.
GateOut run_gate(Workload w, const std::vector<Item>& deck,
                 const std::vector<TuneProblem>& problems, Tally& tally);

/// Sum of modelled makespans (`vt_total_ms`) and communication time
/// (`vt_comm_ms`) over the usable items of a gate, in virtual ms.
double vt_total_ms(const std::vector<Item>& deck, const GateOut& g);
double vt_comm_ms(const std::vector<Item>& deck, const GateOut& g);

}  // namespace perfbench
