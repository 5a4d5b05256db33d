#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decomp.h"
#include "core/exchange_plan.h"
#include "memmap/view.h"
#include "simmpi/comm.h"

namespace brickx {

/// The MemMap exchange (paper Section 4): for every neighbor, a contiguous
/// *virtual* view of the (scattered, overlapping) regions it needs is
/// stitched with mmap, so the whole per-neighbor payload travels as exactly
/// one plain message — 3^D - 1 sends per rank, zero packing, zero copies.
///
/// Requires storage from BrickDecomp::mmap_alloc (memfd-backed, chunks
/// padded to page boundaries). The views are built once and reused for the
/// life of the communication pattern.
///
/// With `alias_storage = false` (timing-only runs, which never read a ghost
/// byte) nothing is mmap'd: every view is a disjoint slice of one private
/// buffer with the same size, segment table and partition table, so all
/// accounting, plan costs and modeled timing are unchanged but messages no
/// longer move storage bytes.
template <int D>
class ExchangeView : public ExchangePlan {
 public:
  /// Each view wire carries one partition per padded region chunk in the
  /// view (surface chunks on the send side, ghost chunks on the receive
  /// side), so the plan can be bound by make_partitioned.
  ExchangeView(const BrickDecomp<D>& dec, BrickStorage& storage,
               const std::vector<int>& neighbor_ranks,
               bool alias_storage = true);

  /// Useful payload bytes within the views (send_byte_count() includes the
  /// page padding; send_message_count() is always 3^D - 1, minus neighbors
  /// with empty payload).
  [[nodiscard]] std::int64_t payload_byte_count() const {
    return payload_bytes_;
  }
  /// Table 2's "increased network transfer from padding", in percent.
  [[nodiscard]] double padding_overhead_percent() const;

  /// File segments stitched into this rank's views (the live mmap segments
  /// counted against vm.max_map_count when the views alias storage).
  [[nodiscard]] std::int64_t view_segment_count() const;

  /// Visit every underlying view (sends then receives) — used to register
  /// unified-memory aliases with the GPU simulator.
  template <typename F>
  void visit_views(F&& fn) const {
    for (const mm::View& v : send_views_) fn(v);
    for (const mm::View& v : recv_views_) fn(v);
  }

 private:
  std::unique_ptr<std::byte[]> unmapped_;  ///< backs the views unless aliased
  std::vector<mm::View> send_views_, recv_views_;  ///< aligned with the wires
  std::int64_t payload_bytes_ = 0;
};

}  // namespace brickx
