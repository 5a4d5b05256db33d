#pragma once

// The exchange engine. Every exchanger — Layout/Basic, MemMap, Shift, the
// network floor and the two array baselines — differs only in how its data
// layout turns into a list of (peer, tag, buffer) messages. It freezes that
// list once per configuration into an ExchangePlan, and the plan does all
// the communicating: ad-hoc rounds, persistent and partitioned binding,
// the partition tables of the dependency scheduler, and byte/message/setup
// accounting (see DESIGN.md §9). PlanCost models the one-time
// schedule-building work — what a real MPI code amortizes with
// MPI_Send_init/MPI_Recv_init and MPI_Type_commit — so the harness can
// report a setup vs steady-state split. Every replay path funnels into the
// same isend/irecv code in simmpi, so a bound round is bit-identical to an
// ad-hoc one.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "simmpi/comm.h"
#include "simmpi/datatype.h"
#include "simmpi/netmodel.h"

namespace brickx {

/// One frozen point-to-point message. A byte wire posts `bytes` bytes at
/// `buf`; a datatype wire lays `type` over the origin passed to
/// ExchangePlan::start / make_persistent (its `buf` is unused). Brick wires
/// also carry their partition table: `regions[i]` is the surface (send) or
/// ghost (recv) region ordinal whose `part_bytes[i]` bytes partition i
/// carries, in wire order.
struct PlanWire {
  int rank;  ///< peer
  int tag;
  std::byte* buf = nullptr;
  std::size_t bytes = 0;  ///< bytes on the wire
  std::optional<mpi::Datatype> type{};
  std::vector<int> regions{};
  std::vector<std::size_t> part_bytes{};
};

/// Tally of the schedule-building work behind one exchange plan. Charged to
/// the virtual clock via seconds(): once per configuration in build-once
/// mode, once per round when replanning is forced (the abl_persistent
/// ablation). The categories mirror where real setup time goes: region-list
/// scans, per-message argument marshalling/request init, MPI_Type_commit
/// block walks, and mmap view-span resolution.
struct PlanCost {
  std::int64_t regions = 0;        ///< surface regions scanned
  std::int64_t messages = 0;       ///< messages initialized (send + recv)
  std::int64_t dt_blocks = 0;      ///< datatype blocks committed
  std::int64_t mmap_segments = 0;  ///< mmap view segments resolved

  [[nodiscard]] double seconds(const mpi::NetModel& m) const {
    return static_cast<double>(regions) * m.plan_region_overhead +
           static_cast<double>(messages) * m.plan_msg_overhead +
           static_cast<double>(dt_blocks) * m.dt_commit_overhead +
           static_cast<double>(mmap_segments) * m.mmap_segment_overhead;
  }

  PlanCost& operator+=(const PlanCost& o) {
    regions += o.regions;
    messages += o.messages;
    dt_blocks += o.dt_blocks;
    mmap_segments += o.mmap_segments;
    return *this;
  }
};

/// One partition of one partitioned wire, flattened across the whole plan:
/// `wire` indexes the plan's send (or recv) wire list, `part` is the
/// partition index within that wire, `region` is the surface (send side) or
/// ghost (recv side) region ordinal whose bytes the partition carries. Brick
/// plans keep one region per partition in both directions, so the
/// dependency scheduler can key partitions directly by region ordinal.
struct PartSpec {
  int wire;           ///< index into the plan's wire list
  int part;           ///< partition index within that wire
  int region;         ///< source surface / destination ghost region ordinal
  std::size_t bytes;  ///< partition payload size
};

/// A frozen message schedule and the one engine that replays it. Rounds
/// post every receive, then every send, in wire order, and complete them in
/// the same order — ad hoc (fresh isend/irecv), over persistent requests
/// (make_persistent), or partition by partition (make_partitioned plus the
/// part_* calls). Misuse — binding twice, binding both ways, starting or
/// binding with a round in flight, partitioning a plan without a partition
/// table, replaying a persistent datatype plan on another origin — throws
/// brickx::Error. Move-only: wires may point into buffers the owning
/// exchanger holds. Destroying a plan mid-round (a faulted exchange) is
/// safe; the abandoned requests die with their shared state.
class ExchangePlan {
 public:
  ExchangePlan() = default;
  ExchangePlan(ExchangePlan&&) = default;
  ExchangePlan& operator=(ExchangePlan&&) = default;
  ExchangePlan(const ExchangePlan&) = delete;
  ExchangePlan& operator=(const ExchangePlan&) = delete;

  // ---- plan construction (before any binding or round) -------------------
  void add_send(PlanWire w) { sends_.push_back(std::move(w)); }
  void add_recv(PlanWire w) { recvs_.push_back(std::move(w)); }
  /// Plan work beyond what the wires imply (region scans, view segments);
  /// message inits and datatype blocks are counted from the wires.
  void add_cost(const PlanCost& c) { cost_ += c; }

  /// The receive wires, in posting order.
  [[nodiscard]] const std::vector<PlanWire>& recvs() const { return recvs_; }

  // ---- binding -----------------------------------------------------------
  /// Bind every wire to a persistent request on `comm`; later rounds replay
  /// via Persistent::start/wait. Datatype wires freeze `origin`, and every
  /// later start() must pass the same one.
  void make_persistent(mpi::Comm& comm, void* origin = nullptr);
  [[nodiscard]] bool persistent() const { return mode_ == Mode::Persistent; }

  /// Bind every wire to a *partitioned* request (MPI 4.0 psend/precv
  /// style) with one partition per entry of its partition table. The
  /// dependency scheduler then readies each partition as its source region
  /// finishes and waits only on the partitions a consuming piece needs.
  /// Mutually exclusive with make_persistent.
  void make_partitioned(mpi::Comm& comm);
  [[nodiscard]] bool partitioned() const {
    return mode_ == Mode::Partitioned;
  }

  // ---- whole-message rounds ----------------------------------------------
  /// Post receives then sends (the paper's communication start). `origin`
  /// anchors datatype wires; byte wires ignore it.
  void start(mpi::Comm& comm, void* origin = nullptr);
  /// Complete the round begun by start().
  void finish(mpi::Comm& comm);
  void exchange(mpi::Comm& comm, void* origin = nullptr) {
    start(comm, origin);
    finish(comm);
  }

  // ---- partitioned rounds (after make_partitioned) -------------------------
  /// Partitions are addressed by flattened index into send_parts() /
  /// recv_parts(); each PartSpec names the region ordinal it carries.
  [[nodiscard]] const std::vector<PartSpec>& send_parts() const {
    return send_parts_;
  }
  [[nodiscard]] const std::vector<PartSpec>& recv_parts() const {
    return recv_parts_;
  }
  /// Open a round on every wire, receives first. No payload moves until
  /// partitions are readied.
  void part_start();
  /// Mark send partition `j` ready for injection.
  void part_pready(int j) {
    const PartSpec& s = send_parts_[static_cast<std::size_t>(j)];
    psends_[static_cast<std::size_t>(s.wire)].pready(s.part);
  }
  /// Block until recv partition `j` has landed. Returns true when the data
  /// was already there (the wait was fully hidden).
  bool part_arrived(int j) {
    const PartSpec& s = recv_parts_[static_cast<std::size_t>(j)];
    return precvs_[static_cast<std::size_t>(s.wire)].arrived(s.part);
  }
  /// Close the round: drain leftover recv partitions, then complete sends —
  /// the same flush points as a bulk waitall.
  void part_finish();

  // ---- accounting ----------------------------------------------------------
  /// Messages sent per exchange by this rank (Fig. 4 / Table 1 accounting).
  [[nodiscard]] std::int64_t send_message_count() const {
    return static_cast<std::int64_t>(sends_.size());
  }
  /// Bytes sent per exchange (page padding included for view wires).
  [[nodiscard]] std::int64_t send_byte_count() const;
  /// The modeled cost of building this plan.
  [[nodiscard]] PlanCost setup_cost() const;

 private:
  enum class Mode { AdHoc, Persistent, Partitioned };
  void check_bindable(Mode want) const;

  std::vector<PlanWire> sends_, recvs_;
  PlanCost cost_;
  Mode mode_ = Mode::AdHoc;
  bool in_flight_ = false;
  void* origin_ = nullptr;  ///< datatype origin frozen by make_persistent
  std::vector<mpi::Request> pending_;
  std::vector<mpi::Persistent> preqs_;  ///< receives, then sends
  std::vector<mpi::Partitioned> precvs_, psends_;
  std::vector<PartSpec> send_parts_, recv_parts_;
};

}  // namespace brickx
