#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/decomp.h"
#include "core/exchange_plan.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"

namespace brickx {

/// The Shift ghost-zone exchange (paper Section 8, after Palmer &
/// Nieplocha and Ding & He): ghost zones are exchanged along each
/// dimension consecutively, *excluding corner neighbors* — corner data is
/// forwarded through the face neighbors in later phases. Only 2*D
/// neighbor pairs are ever addressed (6 in 3D instead of 26), at the cost
/// of D synchronized phases per exchange.
///
/// This implementation is pack-free like the Layout exchange: each phase's
/// slab is sent as runs of byte-contiguous brick chunks. Phase a (axis a)
/// sends, per direction, every chunk whose axis-a band is the outermost
/// surface band, spanning the full already-valid ghost extent on axes < a
/// (that is the forwarding) and the interior extent on axes > a.
///
/// All ranks must use identical decompositions (same requirement as the
/// other exchangers).
template <int D>
class ShiftExchanger {
 public:
  /// `axis_neighbor_ranks[a][0/1]` = rank of the -/+ neighbor along axis
  /// a; use shift_neighbors() to build it from a Cart.
  ShiftExchanger(const BrickDecomp<D>& dec, BrickStorage& storage,
                 const std::vector<std::array<int, 2>>& axis_neighbor_ranks);

  /// Bind every phase's wires to persistent requests (one binding per
  /// phase; the inter-phase waits are unchanged).
  void make_persistent(mpi::Comm& comm) {
    for (ExchangePlan& p : phases_) p.make_persistent(comm);
  }
  [[nodiscard]] bool persistent() const { return phases_[0].persistent(); }

  /// Run all D phases; each phase completes (waits) before the next posts,
  /// which is the synchronization Shift trades for its low message count:
  /// corner data forwarded in phase a+1 must have arrived in phase a.
  void exchange(mpi::Comm& comm) {
    for (ExchangePlan& p : phases_) p.exchange(comm);
  }

  /// Phase a's plan (axis a): the engine one phase of exchange() runs.
  [[nodiscard]] ExchangePlan& phase(int a) {
    return phases_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] int phase_count() const { return D; }

  /// Modeled cost of building the D phase schedules.
  [[nodiscard]] PlanCost setup_cost() const;
  /// Totals over the phases of one exchange.
  [[nodiscard]] std::int64_t send_message_count() const;
  [[nodiscard]] std::int64_t send_byte_count() const;

 private:
  std::array<ExchangePlan, D> phases_;
};

/// Neighbor ranks along each axis for ShiftExchanger.
template <int D>
std::vector<std::array<int, 2>> shift_neighbors(const mpi::Cart<D>& cart);

}  // namespace brickx
