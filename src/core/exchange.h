#pragma once

#include <cstdint>
#include <vector>

#include "core/decomp.h"
#include "core/exchange_plan.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"

namespace brickx {

/// Neighbor ranks indexed like BrickDecomp::neighbor_order() — the paper's
/// `populate(cart, bDecomp, ...)` step.
template <int D>
std::vector<int> populate(const mpi::Cart<D>& cart, const BrickDecomp<D>& dec);

/// Pack-free ghost-zone exchange operating directly on brick storage:
/// every message is a plain (pointer, length) range of storage — no staging
/// buffers, no pack/unpack.
///
///  * Mode::Layout merges regions consecutive in storage that share a
///    destination (42 messages in 3D with surface3d()).
///  * Mode::Basic sends each (region, neighbor) instance separately
///    (98 messages in 3D) — the unoptimized reference from Section 3.2.
///
/// The message schedule is frozen once at construction (the pattern is
/// Static) and replayed each timestep by the ExchangePlan engine — ad hoc,
/// persistent, or partitioned with one partition per surface (send side) /
/// ghost (recv side) region in each wire. All replay paths are
/// bit-identical in exchanged bytes, counters and virtual time.
template <int D>
class Exchanger : public ExchangePlan {
 public:
  enum class Mode { Layout, Basic };

  /// `neighbor_ranks` comes from populate(). The storage must have been
  /// allocated from `dec` (chunk geometry must match).
  Exchanger(const BrickDecomp<D>& dec, BrickStorage& storage,
            const std::vector<int>& neighbor_ranks, Mode mode);

  /// Visit the planned receive ranges as (peer rank, byte offset into
  /// storage, byte length). Lets the write-set tests prove at the *plan*
  /// level that every ghost byte has exactly one writer — overlapping
  /// receives could otherwise hide behind page padding or identical data.
  template <typename F>
  void visit_recv_ranges(F&& fn) const {
    for (const PlanWire& w : recvs())
      fn(w.rank, static_cast<std::size_t>(w.buf - data_), w.bytes);
  }

 private:
  const std::byte* data_;  ///< storage base the wires point into
};

/// The empirical minimum-communication reference ("Network" in Figs. 9/14):
/// per neighbor, one message of the same total payload, sent from a
/// contiguous scratch buffer with no packing cost. Timing-only — it moves
/// scratch bytes, not the domain data.
template <int D>
class NetworkFloorExchanger : public ExchangePlan {
 public:
  NetworkFloorExchanger(const BrickDecomp<D>& dec, const BrickStorage& storage,
                        const std::vector<int>& neighbor_ranks);

 private:
  std::vector<std::byte> scratch_;
};

/// Internal helper shared by the exchangers and tests: the per-message
/// grouping of surface-region ordinals sent toward `dir`, as maximal runs
/// of byte-contiguous chunks in `storage` ((merge == false) disables run
/// merging, yielding the Basic grouping).
template <int D>
std::vector<std::vector<int>> plan_send_groups(const BrickDecomp<D>& dec,
                                               const BrickStorage& storage,
                                               const BitSet& dir, bool merge);

}  // namespace brickx
