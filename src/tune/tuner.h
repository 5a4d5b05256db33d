#pragma once

// Joint autotuner over (layout permutation × rank-to-node mapping × brick
// size × page size) against the virtual-clock cost model (DESIGN.md §15).
// Candidate evaluations run in parallel across worker threads and are
// memoized by *canonical config serialization*: the cache key is the full
// canonical string, so two distinct configs can never alias — the FNV-1a
// hash only buckets entries, and every bucket hit compares serializations
// before trusting a stored result. The search result is deterministic and
// invariant under the worker-thread count (argmin with candidate-index
// tie-break over results indexed by enumeration order).

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "harness/experiment.h"
#include "tune/artifact.h"

namespace brickx::tune {

/// Canonical, byte-stable serialization of every Config field the
/// evaluator reads. Equal strings <=> the evaluator sees equal problems
/// (the machine is identified by preset name + ranks_per_node override;
/// other Machine fields are preset constants).
std::string canonical_key(const harness::Config& cfg);

/// FNV-1a 64-bit, the artifact's reported config hash and the cache's
/// bucketing hash.
std::uint64_t fnv1a(std::string_view s);

/// What one candidate evaluation produces (all virtual-time).
struct Evaluation {
  double total_seconds = 0.0;
  double comm_per_step = 0.0;
  double gstencils = 0.0;
  bool operator==(const Evaluation&) const = default;
};

/// Memo cache for candidate evaluations, shared across tune() calls and
/// safe for concurrent workers. Keys are serialized and compared: a bucket
/// hit only counts as a cache hit when the stored canonical string equals
/// the probe's, so hash collisions on distinct configs are structurally
/// impossible — they are detected, counted, and chained instead of
/// aliased. `hash_bits < 64` masks the hash — a test hook to force
/// collisions.
class EvalCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t collisions = 0;  ///< bucket hits whose keys differed
  };

  explicit EvalCache(int hash_bits = 64);

  std::optional<Evaluation> lookup(const std::string& key);
  void store(const std::string& key, const Evaluation& ev);
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::string key;
    Evaluation eval;
  };
  [[nodiscard]] std::uint64_t bucket(std::string_view key) const;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  Stats stats_;
  std::uint64_t mask_;
};

/// One point of the search space.
struct LayoutChoice {
  std::string name;  ///< "surface3d" / "lexicographic" / "hillclimb" / "n/a"
  LayoutSpec spec;   ///< empty order = keep the harness default
};

struct SearchSpace {
  std::vector<LayoutChoice> layouts;
  std::vector<netsim::MapKind> mappings;
  std::vector<std::int64_t> bricks;
  std::vector<std::size_t> pages;

  [[nodiscard]] std::int64_t candidate_count() const {
    return static_cast<std::int64_t>(layouts.size() * mappings.size() *
                                     bricks.size() * pages.size());
  }

  /// The standard joint space for `problem`:
  ///  - layouts: surface3d, lexicographic, and an optimize_layout
  ///    hill-climb (budget/seed below), deduplicated by permutation;
  ///    collapsed to the harness default for non-brick methods (arrays
  ///    have no region layout);
  ///  - mappings: all five strategies on a routed fabric, block alone on
  ///    the flat model (which ignores mapping);
  ///  - bricks: {4, 8} filtered by ghost/subdomain divisibility (the
  ///    problem's own brick for non-brick methods);
  ///  - pages: {0, 16384, 65536} plus the problem's page size for MemMap,
  ///    the problem's page size alone otherwise.
  /// The hand-picked bench configs (surface3d, block, brick 8, page 0)
  /// are members whenever they are valid — the self-check's "tuned meets
  /// or beats hand-picked" is structural, not statistical.
  static SearchSpace standard(const harness::Config& problem,
                              std::int64_t layout_budget = 2000,
                              std::uint64_t layout_seed = 1);
};

/// The winning point plus everything needed to report and replay it.
struct TuneResult {
  harness::Config best_config;  ///< problem + winning choice
  Evaluation best;
  std::int64_t best_index = -1;  ///< enumeration index of the winner
  std::string layout_name;
  netsim::MapKind mapping = netsim::MapKind::Block;
  std::int64_t brick = 8;
  std::size_t page_size = 0;
  std::int64_t candidates = 0;  ///< enumerated (== artifact.candidates)
  std::int64_t distinct = 0;    ///< distinct canonical keys among them
  std::int64_t evaluated = 0;   ///< harness runs actually performed
  TunedArtifact artifact;       ///< byte-deterministic replay document
};

/// Exhaustive search over `space` for `problem` (whose layout / mapping /
/// brick / page fields are treated as the hand-picked baseline, not as
/// constraints). `threads` only changes wall-clock: results, including
/// the artifact bytes, are identical for any thread count. `cache` may be
/// nullptr (cold evaluation) or shared across calls (memoized — bit-
/// identical results by the cache's key-equality contract).
TuneResult tune(const harness::Config& problem, const SearchSpace& space,
                int threads = 1, EvalCache* cache = nullptr);

}  // namespace brickx::tune
