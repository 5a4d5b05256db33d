#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"

namespace brickx {

/// A communication-optimized storage order of the 3^D - 1 surface regions
/// (the paper's Section 3). The permutation determines how many messages a
/// pack-free ghost-zone exchange needs: regions consecutive in storage that
/// share a destination ride in one message.
struct LayoutSpec {
  std::vector<BitSet> order;

  [[nodiscard]] int dims() const;
  /// Position of signature σ in the order; -1 if absent.
  [[nodiscard]] int position(const BitSet& sigma) const;
  /// True iff `order` is a permutation of all_surface_signatures(dims).
  [[nodiscard]] bool valid(int dims) const;
};

/// Eq. 2: number of neighbors of a D-dimensional subdomain = 3^D - 1.
/// This is also MemMap's message count (one per neighbor).
std::int64_t neighbor_count(int dims);

/// Eq. 3: Basic approach (one message per (region, neighbor) instance)
/// = 5^D - 3^D.
std::int64_t basic_message_count(int dims);

/// Eq. 1: the paper's lower bound on Layout messages
/// = 5^D/3 + (-1)^D/6 + 1/2, an integer for all D >= 1.
std::int64_t layout_message_lower_bound(int dims);

/// Number of messages a given surface order needs: for every neighbor ν,
/// the number of maximal runs of consecutive positions whose region is sent
/// to ν, summed over all 3^D - 1 neighbors. (Canonical count: all regions
/// assumed non-empty.)
std::int64_t message_count(const LayoutSpec& layout, int dims);

/// The paper's optimized layouts, provided as library constants:
/// surface1d (2 messages), surface2d (9 messages, Figure 3), surface3d
/// (42 messages, Section 3.2). Each achieves the Eq. 1 lower bound.
const LayoutSpec& surface1d();
const LayoutSpec& surface2d();
const LayoutSpec& surface3d();

/// The Basic (unoptimized) reference order: plain enumeration order, which
/// makes no contiguity promises; used with per-region messages.
LayoutSpec lexicographic_layout(int dims);

/// Search for a low-message layout: exhaustive for D <= 2, randomized
/// hill-climbing with restarts otherwise. Returns the best layout found
/// within `budget` candidate evaluations (guaranteed optimal only for
/// D <= 2). Deterministic for a fixed seed. Throws Error if `budget` < 1.
LayoutSpec optimize_layout(int dims, std::int64_t budget = 200000,
                           std::uint64_t seed = 1);

}  // namespace brickx
