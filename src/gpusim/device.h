#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "simmpi/comm.h"
#include "simmpi/netmodel.h"

namespace brickx::gpu {

/// Cost model of a V100-class accelerator and its host link. Defaults are
/// Summit's published numbers (Section 2 of the paper).
struct GpuModel {
  double hbm_bw = 828.8e9;          ///< bytes/s, HBM2 stream
  double flops = 7.8e12;            ///< peak double-precision flop/s
  double launch_overhead = 4e-6;    ///< seconds per kernel launch
  double link_bw = 50e9;            ///< bytes/s CPU<->GPU (NVLink2)
  double fault_per_page = 2.5e-6;   ///< seconds per UM page fault
  /// Extra device-fault cost for a page the host previously touched only
  /// *partially* (a communicated region not aligned to page boundaries):
  /// the page bounces with dirty lines on both sides — the compute-side
  /// penalty the paper's Figure 15 attributes to unaligned regions.
  double fragmented_fault_extra = 10e-6;
  std::size_t page_size = 64 * 1024;  ///< Power9 host page size (ATS/UM)
  /// cuMemMap support (CUDA >= 10.2): lets device memory back mmap views,
  /// enabling a hypothetical MemMapCA. The paper's footnote 2 notes it was
  /// NOT supported on Summit; modeled here as the future-work ablation.
  bool supports_cumemmap = false;
};

/// Which side of the link currently holds a unified-memory page.
enum class Side : std::uint8_t { Host, Device };

/// A simulated GPU: a registry of device / unified address ranges (the
/// memory itself is ordinary host memory, so computation is real), explicit
/// transfer costs, a roofline kernel cost, and page-granularity
/// unified-memory residency with fault-migration costs.
///
/// Interop with simmpi: install hooks() into the Runtime; message buffers
/// in registered ranges are then classified Device (CUDA-Aware path,
/// GPUDirect latencies, no staging) or Unified (page faults charged when
/// the host/NIC touches device-resident pages — and the device faults them
/// back on the next kernel, reproducing the paper's Figure 15 effect).
///
/// Thread-safe; one instance serves all ranks (ranges do not overlap
/// across ranks).
class Device {
 public:
  explicit Device(GpuModel model) : model_(model) {}

  /// Declare [base, base+bytes) to be device (cudaMalloc) or unified
  /// (UM/ATS) memory. Unified ranges start device-resident.
  void register_range(const void* base, std::size_t bytes,
                      mpi::MemSpace space);
  void unregister_range(const void* base);

  /// Declare [base, base+bytes) an *alias* of the same physical pages as
  /// [canonical, canonical+bytes) — what an mmap view of unified memory is.
  /// Classification and residency redirect to the canonical range, so a
  /// page migrated through a view is migrated for the canonical mapping
  /// too (and vice versa).
  void register_alias(const void* base, std::size_t bytes,
                      const void* canonical);
  [[nodiscard]] mpi::MemSpace classify(const void* p) const;

  /// Host-side access to [p, p+n): unified pages resident on the device
  /// migrate back, costing fault time + link transfer. Returns seconds.
  /// Device (cudaMalloc) ranges cost nothing here — the NIC reads them via
  /// GPUDirect, and the per-message cost is in NetModel. Plain host memory
  /// is free.
  double touch_host(const void* p, std::size_t n);

  /// Device-side access (a kernel reading/writing [p, p+n)): unified pages
  /// resident on the host fault over. Returns seconds.
  double touch_device(const void* p, std::size_t n);

  /// One contiguous piece of a batched touch: [base + offset,
  /// base + offset + length).
  using Block = mpi::FlatType::Block;

  /// Batched forms: every block of one message or kernel sweep under one
  /// lock. Each block is charged exactly as the single-range call would
  /// charge it, in block order. The host form advances `clock` by each
  /// block's seconds before applying the next block, so um_migrate notes
  /// land where one call per block puts them; the device form adds each
  /// block's seconds to the running sum `secs`.
  void touch_host(const void* base, std::span<const Block> blocks,
                  mpi::VClock& clock);
  void touch_device(const void* base, std::span<const Block> blocks,
                    double& secs);

  /// Explicit cudaMemcpy-style staging: performs the copy for real and
  /// returns the modeled transfer seconds.
  double memcpy_h2d(void* dst, const void* src, std::size_t n);
  double memcpy_d2h(void* dst, const void* src, std::size_t n);

  /// Roofline kernel time for `cells` outputs.
  [[nodiscard]] double kernel_seconds(std::int64_t cells,
                                      double flops_per_cell,
                                      double bytes_per_cell) const;

  [[nodiscard]] const GpuModel& model() const { return model_; }

  /// Hooks for mpi::Runtime::set_mem_hooks. The touch hook charges the
  /// batched touch_host for every buffer the (simulated) MPI library reads
  /// or writes from the host side.
  [[nodiscard]] mpi::MemHooks hooks();

  /// Unified pages migrated so far (diagnostics / tests).
  [[nodiscard]] std::int64_t pages_migrated() const { return migrations_; }

 private:
  struct Range {
    std::size_t bytes;
    mpi::MemSpace space;
    std::vector<Side> residency;   // per page; unified ranges only
    std::vector<bool> fragmented;  // host-touched partially (unaligned span)
    std::uintptr_t alias = 0;      // nonzero: redirect into this address
  };
  double migrate(Range& r, std::uintptr_t base, const void* p, std::size_t n,
                 Side to);
  /// One range's touch with mu_ held.
  double touch_locked(const void* p, std::size_t n, Side to);
  /// Resolve p through at most one alias hop; returns the owning range (or
  /// ranges_.end()) with the redirected pointer in *rp.
  std::map<std::uintptr_t, Range>::iterator resolve(const void* p,
                                                    const void** rp);

  GpuModel model_;
  mutable std::mutex mu_;
  std::map<std::uintptr_t, Range> ranges_;
  std::int64_t migrations_ = 0;
};

}  // namespace brickx::gpu
