#pragma once

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/vec.h"
#include "core/layout.h"
#include "model/machine.h"
#include "netsim/fabric.h"
#include "netsim/mapping.h"
#include "simmpi/fault.h"
#include "transport/transport.h"

namespace brickx::harness {

/// The implementations the paper evaluates (Section 7), plus Shift — the
/// dimension-by-dimension alternative the paper's Section 8 describes as a
/// natural extension.
enum class Method {
  Yask,      ///< array layout + explicit packing, autotuned compute model
  MpiTypes,  ///< array layout + MPI derived datatypes (packing inside MPI)
  Basic,     ///< bricks, one message per (region, neighbor) instance
  Layout,    ///< bricks, run-merged pack-free messages (Section 3)
  MemMap,    ///< bricks, mmap views, one message per neighbor (Section 4)
  Shift,     ///< bricks, D synchronized phases, face neighbors only
  Network,   ///< timing floor: per-neighbor contiguous scratch messages
};

/// GPU data-movement mode (Section 5). None = CPU experiment.
enum class GpuMode {
  None,
  CudaAware,  ///< storage in (simulated) cudaMalloc memory; GPUDirect RDMA
  Unified,    ///< storage in unified memory; page-fault migration
  /// The pre-CUDA-Aware manual workflow the paper's Section 5 describes
  /// (and its reference [29] measured): pack on the GPU, cudaMemcpy the
  /// packed buffers to the host, run MPI there, and shuttle the results
  /// back. Only meaningful with the packing baseline (Method::Yask).
  Staged,
};

const char* method_name(Method m);

/// When an exchanger's frozen plan is built relative to the measured rounds
/// (the abl_persistent ablation axis; see DESIGN.md §9).
enum class PlanMode {
  /// Build the plan once before the measured loop, bind it to persistent
  /// requests, and replay it every round. The modeled setup cost is charged
  /// pre-measurement and reported separately (Result::setup_seconds).
  BuildOnce,
  /// Rebuild the plan at the start of every exchange round inside the
  /// measured loop — the plan-per-round strawman whose per-step cost lands
  /// in Result::replan_per_step.
  PerRound,
};

struct Config {
  model::Machine machine = model::theta();
  Vec3 rank_dims{2, 2, 2};   ///< process grid (prod == world size)
  Vec3 subdomain{32, 32, 32};  ///< cells per rank
  std::int64_t brick = 8;      ///< cubic brick extent (4 or 8)
  std::int64_t ghost = 8;      ///< ghost width in cells (multiple of brick)
  bool use125 = false;         ///< 125-point instead of 7-point stencil
  /// Coupled fields evolved together (DESIGN.md §16). Brick methods store
  /// them AoSoA inside each brick chunk and the array baselines as
  /// contiguous field-major slabs (ArrayFields), so EVERY exchanger moves
  /// all fields per neighbor in a single message — the per-round message
  /// count is field-count-invariant (bytes scale linearly). Each field
  /// evolves under the same stencil from a field-salted initial condition;
  /// field 0 reproduces the single-field run bit-exactly. CPU-only for
  /// fields > 1.
  int fields = 1;
  Method method = Method::MemMap;
  GpuMode gpu = GpuMode::None;
  int timesteps = 8;           ///< measured timesteps
  int warmup_exchanges = 1;    ///< unmeasured leading exchange batches
  std::size_t page_size = 0;   ///< emulated page size for MemMap (0 = host)
  bool execute_kernels = true; ///< actually run the math (not just model it)
  /// Dispatch the compute phase to the naive per-access reference kernels
  /// instead of the fast-path engine (DESIGN.md §10). Bit-identical results
  /// either way — the flag exists for differential testing; wall-clock
  /// (not virtual-time) cost is the only difference.
  bool naive_kernels = false;
  bool validate = false;       ///< compare against the global reference
  /// Explicit brick-region layout override — the autotuner's layout lever
  /// (src/tune, DESIGN.md §15) and Fig. 10's "No-Layout"
  /// (lexicographic_layout(3)). An empty order (the default) keeps the
  /// optimized surface3d(). When set it must be a valid 3-D layout.
  LayoutSpec layout{};
  /// Force a timing-only run (execute_kernels = false); the tuned-artifact
  /// schema and the tuner's canonical key carry it. Timing-only MemMap
  /// runs build unmapped views (ExchangeView): they hold no live mmap
  /// segment, and every modeled figure equals the executed run's.
  bool memmap_floor_proxy = false;
  /// Overlap communication with computation (brick methods except Shift):
  /// the interior — cells whose stencil inputs never touch the ghost
  /// frame — is computed between posting and completing the exchange; the
  /// dependent shell is computed after. The prior-work optimization the
  /// paper contrasts with (its YASK-OL line); exact, not an approximation.
  bool overlap = false;
  /// Network fabric for message timing. Flat (the default) is the original
  /// per-sender serialization model and keeps every result bit-identical to
  /// pre-netsim builds; any other kind routes inter-node messages over a
  /// topology with link contention (src/netsim).
  netsim::FabricKind fabric = netsim::FabricKind::Flat;
  /// Process-to-node mapping, used by non-flat fabrics. Block matches the
  /// flat model's node assignment; Greedy minimizes inter-node traffic over
  /// the cartesian exchange graph.
  netsim::MapKind mapping = netsim::MapKind::Block;
  /// Deterministic message-fault schedule (simmpi/fault.h). Empty (the
  /// default) keeps the runtime on its zero-overhead path. Delay-only
  /// schedules perturb timing but never results; corrupting schedules make
  /// run() throw with a "fault detected" diagnostic rather than return
  /// silently wrong data — see src/check and DESIGN.md §8.
  mpi::FaultSpec faults{};
  /// Plan lifetime: build-once/replay (the default, and byte-identical in
  /// measured output to pre-plan builds) vs forced plan-per-round.
  PlanMode plan = PlanMode::BuildOnce;
  /// On-node transport tier (DESIGN.md §13). Flat (the default) keeps every
  /// message on the fabric path, byte-identical to pre-transport builds.
  /// Shm short-circuits same-node pairs through the shared-memory model;
  /// ShmAgg additionally coalesces co-located ranks' inter-node sends into
  /// one framed fabric flow per (node, neighbor-node) pair. ShmAgg
  /// requires ranks_per_node > 1 — with one rank per node there is nothing
  /// to aggregate, and run() rejects the combination rather than silently
  /// degenerating to per-message frames.
  transport::Kind transport = transport::Kind::Flat;
};

/// Per-timestep phase decomposition, exactly the artifact's five metrics:
/// calc / pack / call / wait in seconds-per-timestep (Stats across ranks),
/// plus overall throughput.
struct Result {
  Stats calc, pack, call, wait;
  double total_seconds = 0;     ///< max-rank virtual time for measured steps
  double calc_per_step = 0;     ///< average over ranks
  double comm_per_step = 0;     ///< pack + call + wait average
  double gstencils = 0;         ///< 1e9 stencil updates / second, all ranks
  std::int64_t msgs_per_rank = 0;       ///< sends per exchange
  std::int64_t wire_bytes_per_rank = 0; ///< bytes sent per exchange (with padding)
  std::int64_t payload_bytes_per_rank = 0;
  double padding_percent = 0;   ///< Table 2's extra transfer from padding
  /// Receive-side accounting, counted by rank 0 over the whole run
  /// (warmup + measured): completions are what the receiver pays for.
  std::int64_t msgs_recv_per_rank = 0;
  std::int64_t bytes_recv_per_rank = 0;
  /// Deepest any rank kept the NIC pipeline (pending isend/irecv Requests).
  std::int64_t max_inflight_reqs = 0;
  /// Setup vs steady state (DESIGN.md §9). In BuildOnce mode the one-time
  /// plan cost is charged before the measured loop and reported here; in
  /// PerRound mode the forced rebuilds land inside measured steps instead.
  Stats plan_setup;              ///< per-rank one-time plan build seconds
  double setup_seconds = 0;      ///< plan_setup average over ranks
  double replan_per_step = 0;    ///< forced in-loop rebuild s/step (PerRound)
  std::int64_t plan_builds_per_rank = 0;  ///< plan constructions per rank
  bool validated = false;       ///< set when cfg.validate passed
  /// Fabric-level observability, filled for non-flat fabrics (all zero
  /// under the default flat model).
  double avg_hops = 0;          ///< mean links traversed per fabric message
  double queue_s_per_msg = 0;   ///< mean NIC queueing delay per message
  double max_link_sharing = 0;  ///< peak mean flows sharing one link
  double busiest_link_util = 0; ///< hottest link's busy fraction of the run
  /// Messages that crossed the fabric (whole run, all ranks; excludes
  /// node-local and shared-memory deliveries). The abl_transport ratio
  /// numerator/denominator.
  std::int64_t fabric_msgs = 0;
  /// What the fault schedule did (all zero when cfg.faults is empty).
  mpi::FaultCounts fault_counts{};
  /// Send-side locality split (msgs_intra + msgs_inter == msgs_sent),
  /// counted by rank 0 over the whole run like msgs_recv_per_rank.
  /// Meaningful whenever ranks share nodes; the intra split is zero under
  /// one rank per node.
  std::int64_t msgs_intra_per_rank = 0;
  std::int64_t msgs_inter_per_rank = 0;
  std::int64_t bytes_intra_per_rank = 0;
  std::int64_t bytes_inter_per_rank = 0;
  /// Transport-tier traffic over the whole run, all ranks (zero under
  /// transport = Flat; see transport::Stats).
  transport::Stats transport_stats{};
};

/// The 26-direction periodic cartesian exchange graph of `cfg`: one edge
/// per (rank, direction) with weight = ghost-surface bytes sent that way
/// per exchange. What the Greedy mapping minimizes the cut of; benches use
/// it with netsim::cut_bytes to report inter-node volume per mapping.
std::vector<netsim::CommEdge> exchange_comm_graph(const Config& cfg);

/// Run one experiment: spawns cfg.rank_dims.prod() ranks on a fresh
/// simmpi Runtime, executes warmup + measured timesteps of
/// exchange-and-compute with ghost-cell expansion, and aggregates phases.
/// Deterministic: same Config => identical Result.
Result run(const Config& cfg);

}  // namespace brickx::harness
