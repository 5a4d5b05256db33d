#include "harness/experiment.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "baseline/array_exchange.h"
#include "common/error.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/exchange.h"
#include "core/exchange_view.h"
#include "core/shift.h"
#include "gpusim/device.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "simmpi/cart.h"
#include "stencil/stencils.h"

namespace brickx::harness {

namespace {

using mpi::Cart;
using mpi::Comm;

/// Deterministic initial condition shared by every method and the
/// reference, keyed on *global* cell coordinates. Field f > 0 salts the
/// hash so coupled fields carry distinct data; f == 0 reproduces the
/// historical single-field value bit-exactly.
double init_val(const Vec3& g, int f = 0) {
  const std::uint64_t h = static_cast<std::uint64_t>(g[0]) * 73856093u ^
                          static_cast<std::uint64_t>(g[1]) * 19349663u ^
                          static_cast<std::uint64_t>(g[2]) * 83492791u ^
                          static_cast<std::uint64_t>(f) * 2654435761u;
  return static_cast<double>(h % 4096) / 4096.0;
}

/// Fill a lexicographic slab over `frame` with field f's initial values at
/// global coordinates cell + `offset`, one axis-0 row at a time.
void fill_init(double* slab, const Box<3>& frame, const Vec3& offset, int f) {
  for_each_row(frame, [&](const Vec3& lo, std::int64_t n) {
    Vec3 g = lo + offset;
    for (std::int64_t i = 0; i < n; ++i, ++g[0]) *slab++ = init_val(g, f);
  });
}

/// Whether every cell of `got` (over box `N` from the origin) equals the
/// global reference `ref` at cell + `offset`; `got_row(lo)` points at the
/// axis-0 row starting at lo.
template <typename Row>
bool matches_reference(const Vec3& N, Row&& got_row, const CellArray3& ref,
                       const Vec3& offset) {
  std::int64_t bad = 0;
  for_each_row(Box<3>{{0, 0, 0}, N}, [&](const Vec3& lo, std::int64_t n) {
    const double* a = got_row(lo);
    const double* r = ref.row(lo + offset);
    for (std::int64_t i = 0; i < n; ++i)
      if (a[i] != r[i]) ++bad;
  });
  return bad == 0;
}

/// RAII for ranges registered with the GPU simulator by one rank.
class GpuRegs {
 public:
  explicit GpuRegs(gpu::Device* dev) : dev_(dev) {}
  void range(const void* base, std::size_t bytes, mpi::MemSpace space) {
    if (!dev_ || bytes == 0) return;
    dev_->register_range(base, bytes, space);
    bases_.push_back(base);
  }
  void alias(const void* base, std::size_t bytes, const void* canonical) {
    if (!dev_ || bytes == 0) return;
    dev_->register_alias(base, bytes, canonical);
    bases_.push_back(base);
  }
  ~GpuRegs() {
    for (auto it = bases_.rbegin(); it != bases_.rend(); ++it)
      dev_->unregister_range(*it);
  }

 private:
  gpu::Device* dev_;
  std::vector<const void*> bases_;
};

struct RankOut {
  double calc = 0, pack = 0, call = 0, wait = 0, span = 0;
  double setup = 0, replan = 0;  ///< plan-build time (see DESIGN.md §9)
  std::int64_t msgs = 0, wire = 0, payload = 0;
  std::int64_t builds = 0;  ///< exchange-plan constructions on this rank
  double padding = 0;
  bool validated = false;
};

void compute_bricks(const Config& cfg, const BrickDecomp<3>& dec,
                    const BrickInfo<3>& info, BrickStorage& in,
                    BrickStorage& out, const Box<3>& box) {
  auto go = [&](auto tag) {
    constexpr int B = decltype(tag)::value;
    // AoSoA: field f lives at element offset f * B^3 within every brick
    // chunk; each field runs the same kernel over the same adjacency.
    for (int f = 0; f < in.fields(); ++f) {
      const std::int64_t off = f * dec.elements_per_brick();
      Brick<B, B, B> bin(&info, &in, off);
      Brick<B, B, B> bout(&info, &out, off);
      if (cfg.use125) {
        if (cfg.naive_kernels) {
          stencil::apply125_bricks_naive<B, B, B>(dec, bout, bin, box);
        } else {
          stencil::apply125_bricks<B, B, B>(dec, bout, bin, box);
        }
      } else if (cfg.naive_kernels) {
        stencil::apply7_bricks_naive<B, B, B>(dec, bout, bin, box);
      } else {
        stencil::apply7_bricks<B, B, B>(dec, bout, bin, box);
      }
    }
  };
  if (cfg.brick == 8) {
    go(std::integral_constant<int, 8>{});
  } else if (cfg.brick == 4) {
    go(std::integral_constant<int, 4>{});
  } else {
    brickx::fail("harness kernels support brick extents 4 and 8");
  }
}

}  // namespace

std::vector<netsim::CommEdge> exchange_comm_graph(const Config& cfg) {
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  std::vector<netsim::CommEdge> edges;
  edges.reserve(static_cast<std::size_t>(nranks) * 26);
  for (int r = 0; r < nranks; ++r) {
    const Vec3 c = delinearize(r, cfg.rank_dims);
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const Vec3 d{dx, dy, dz};
          Vec3 nc = c + d;
          for (int i = 0; i < 3; ++i)
            nc[i] = ((nc[i] % cfg.rank_dims[i]) + cfg.rank_dims[i]) %
                    cfg.rank_dims[i];
          const int n = static_cast<int>(linearize(nc, cfg.rank_dims));
          if (n == r) continue;  // periodic self-neighbor on a size-1 axis
          double w = 8.0;  // doubles on the wire
          for (int i = 0; i < 3; ++i)
            w *= static_cast<double>(d[i] == 0 ? cfg.subdomain[i] : cfg.ghost);
          edges.push_back(netsim::CommEdge{r, n, w});
        }
  }
  return edges;
}

const char* method_name(Method m) {
  switch (m) {
    case Method::Yask:
      return "YASK";
    case Method::MpiTypes:
      return "MPI_Types";
    case Method::Basic:
      return "Basic";
    case Method::Layout:
      return "Layout";
    case Method::MemMap:
      return "MemMap";
    case Method::Shift:
      return "Shift";
    case Method::Network:
      return "Network";
  }
  return "?";
}

Result run(const Config& cfg) {
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  BX_CHECK(nranks >= 1, "empty rank grid");
  const bool is_brick = cfg.method == Method::Basic ||
                        cfg.method == Method::Layout ||
                        cfg.method == Method::MemMap ||
                        cfg.method == Method::Shift ||
                        cfg.method == Method::Network;
  BX_CHECK(cfg.layout.order.empty() || cfg.layout.valid(3),
           "Config::layout must be a valid 3-D region layout (every "
           "3-D surface signature exactly once)");
  BX_CHECK(cfg.fields >= 1, "Config::fields must be positive");
  BX_CHECK(cfg.fields == 1 || cfg.gpu == GpuMode::None,
           "multi-field runs are CPU-only (GPU range accounting assumes one "
           "field per storage)");
  BX_CHECK(cfg.gpu == GpuMode::None || cfg.machine.is_gpu,
           "GPU modes require a GPU machine model");
  BX_CHECK(!(cfg.method == Method::MemMap && cfg.gpu == GpuMode::CudaAware &&
             !cfg.machine.gpu.supports_cumemmap),
           "cudaMalloc memory does not support MemMap (paper Section 5; "
           "use summit_future() for the cuMemMap ablation)");
  BX_CHECK(!(cfg.method == Method::Yask && cfg.gpu != GpuMode::None &&
             cfg.gpu != GpuMode::Staged),
           "the packing baseline supports CPU runs and manual GPU staging");
  BX_CHECK(!(cfg.gpu == GpuMode::Staged && cfg.method != Method::Yask),
           "manual staging is the packing baseline's workflow");
  BX_CHECK(!cfg.overlap ||
               (is_brick && cfg.method != Method::Shift &&
                cfg.method != Method::Network),
           "overlap is supported for the Basic/Layout/MemMap brick methods");
  BX_CHECK(!(cfg.overlap && cfg.plan == PlanMode::PerRound),
           "overlap requires a build-once plan: the dependency scheduler "
           "binds partitioned requests, which freeze the wire schedule");
  BX_CHECK(!(cfg.plan == PlanMode::PerRound && cfg.gpu != GpuMode::None),
           "the plan-per-round ablation is CPU-only (rebuilding exchangers "
           "would churn the GPU range registrations)");

  // The node model must be coherent with the world size before any fabric
  // (flat or routed) derives node assignments from it.
  const int rpn = cfg.machine.net.ranks_per_node;
  BX_CHECK(rpn >= 1, "machine.net.ranks_per_node must be positive");
  if (nranks % rpn != 0)
    std::fprintf(stderr,
                 "harness: warning: world size %d is not a multiple of "
                 "ranks_per_node %d; the last node runs underfilled\n",
                 nranks, rpn);
  BX_CHECK(!(cfg.transport == transport::Kind::ShmAgg && rpn == 1),
           "transport=shm-agg requires ranks_per_node > 1: with one rank "
           "per node there are no co-located ranks to aggregate, so every "
           "frame would carry a single message (use transport=flat or a "
           "machine model with ranks_per_node > 1)");

  mpi::Runtime rt(nranks, cfg.machine.net);
  rt.set_transport(cfg.transport);
  if (cfg.fabric != netsim::FabricKind::Flat) {
    // Split the flat inter-node alpha across the two hops every fabric
    // route has at minimum, so an uncongested single-switch path costs
    // exactly what the flat model charges.
    const mpi::LinkParams inter = cfg.machine.net.inter_node;
    rt.set_fabric(netsim::make_fabric(
        cfg.fabric, cfg.mapping, nranks, rpn, inter.bw, inter.alpha / 2.0,
        inter.alpha, exchange_comm_graph(cfg),
        {static_cast<int>(cfg.rank_dims[0]), static_cast<int>(cfg.rank_dims[1]),
         static_cast<int>(cfg.rank_dims[2])}));
  }
  // Seeded message-fault schedule (off by default: no injector installed,
  // so the runtime skips the integrity layer entirely and behavior is
  // byte-identical to fault-free builds).
  std::optional<mpi::FaultInjector> faults;
  if (cfg.faults.any()) {
    faults.emplace(cfg.faults);
    rt.set_fault_injector(&*faults);
  }
  // Span/metric sink for this experiment; every rank thread binds to its
  // RankLog inside rt.run. A no-op null sink when BRICKX_OBS is off.
  obs::Collector col(nranks);
  rt.set_collector(&col);
  std::optional<gpu::Device> device;
  if (cfg.gpu != GpuMode::None) {
    device.emplace(cfg.machine.gpu);
    rt.set_mem_hooks(device->hooks());
  }

  const bool execute = cfg.execute_kernels && cfg.method != Method::Network &&
                       !cfg.memmap_floor_proxy;
  const bool validate = cfg.validate && execute;

  std::vector<RankOut> outs(static_cast<std::size_t>(nranks));

  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, cfg.rank_dims);
    const Vec3 N = cfg.subdomain;
    const std::int64_t g = cfg.ghost;
    const std::int64_t r = cfg.use125 ? 2 : 1;
    const std::int64_t k = stencil::steps_per_exchange(g, r);
    const double flops =
        cfg.use125 ? stencil::Stencil125::kFlops : stencil::Stencil7::kFlops;
    constexpr double kBytesPerCell = 16.0;  // one read + one write stream
    const Vec3 offset = cart.coords() * N;
    const Vec3 global_ext = cfg.rank_dims * N;
    const mpi::MemSpace space = cfg.gpu == GpuMode::CudaAware
                                    ? mpi::MemSpace::Device
                                    : mpi::MemSpace::Unified;
    const bool staged = cfg.gpu == GpuMode::Staged;

    RankOut out;

    BX_CHECK(!cfg.overlap || k >= 2,
             "overlap needs at least two steps per exchange (ghost >= "
             "2 * stencil radius) so a producer step exists to hide behind");

    // ---- storage, exchangers, compute closure per family ------------------
    // pack_fn/unpack_fn are the packing baseline's on-node copies.
    // compute_fn(box, first) runs and prices one compute sweep; the overlap
    // scheduler passes first = false for the later pieces of a step.
    // rebuild_fn reconstructs the exchanger the upcoming round uses (the
    // PerRound ablation, DESIGN.md §9).
    std::function<void()> pack_fn, unpack_fn, rebuild_fn;
    std::function<void(const Box<3>&, bool)> compute_fn;
    std::function<bool()> validate_fn;
    // The exchange engine each input buffer's rounds run on, and the origin
    // its datatype wires are laid over (MPI_Types only). Shift has none: its
    // D dependent phases run back to back inside the wait phase.
    std::array<ExchangePlan*, 2> engine{};
    std::array<void*, 2> origin{};
    int plan_copies = 1;  ///< plans built up front (2 for double-buffered)
    int input = 0;  // double-buffer selector

    // Brick family state.
    std::optional<BrickDecomp<3>> dec;
    std::optional<BrickInfo<3>> info;
    std::vector<BrickStorage> stores;
    std::vector<Exchanger<3>> exs;
    std::optional<ExchangeView<3>> view;
    std::vector<ShiftExchanger<3>> shs;
    std::optional<NetworkFloorExchanger<3>> floor;
    // Array family state (afields replaces fields when cfg.fields > 1).
    std::vector<CellArray3> fields;
    std::vector<ArrayFields> afields;
    std::optional<baseline::PackExchanger> packer;
    std::optional<baseline::MpiTypesExchanger> typer;
    // Declared after the memory it registers, so every range is
    // unregistered before that memory is freed and can be reused (and
    // registered) by another rank's allocation.
    GpuRegs regs(device ? &*device : nullptr);

    if (is_brick) {
      dec.emplace(N, g, Vec3::fill(cfg.brick),
                  cfg.layout.order.empty() ? surface3d() : cfg.layout);
      info.emplace(dec->brick_info());
      // MemMap over unified memory must align chunks to the *UM* page size
      // (64 KiB on Power9/ATS) — that alignment is what spares its compute
      // from fault backwash (Figure 15).
      std::size_t ps = cfg.page_size;
      if (ps == 0 && cfg.gpu != GpuMode::None)
        ps = cfg.machine.gpu.page_size;
      for (int f = 0; f < 2; ++f)
        stores.push_back(cfg.method == Method::MemMap
                             ? dec->mmap_alloc(cfg.fields, ps)
                             : dec->allocate(cfg.fields));
      const auto ranks = populate(cart, *dec);
      for (auto& s : stores) {
        if (cfg.gpu != GpuMode::None)
          regs.range(s.data(), s.bytes(), space);
      }
      if (cfg.method == Method::MemMap) {
        // Ghost-cell expansion gives an even steps-per-exchange, so only
        // stores[0] is ever on the exchanging side; building views for it
        // alone halves the live mmap-segment footprint. Timing-only runs
        // read no ghost byte, so their views are not mapped at all.
        BX_CHECK(stencil::steps_per_exchange(g, r) % 2 == 0,
                 "MemMap double buffering expects an even exchange period");
        view.emplace(*dec, stores[0], ranks, execute);
        if (cfg.gpu == GpuMode::Unified) {
          // Views alias the canonical unified pages.
          view->visit_views([&](const mm::View& v) {
            for (const auto& seg : v.segment_map())
              regs.alias(v.data() + seg.view_offset, seg.length,
                         stores[0].data() + seg.file_offset);
          });
        } else if (cfg.gpu == GpuMode::CudaAware) {
          // cuMemMap future-work mode: the views are device memory too, so
          // the NIC reads them via GPUDirect with no faults.
          view->visit_views([&](const mm::View& v) {
            regs.range(v.data(), v.size(), mpi::MemSpace::Device);
          });
        }
        engine[0] = &*view;
        rebuild_fn = [&, ranks] {
          // reset-then-emplace: tears down the old mmap views before
          // stitching fresh ones (PerRound is CPU-only, so no GPU aliases
          // need re-registering).
          view.reset();
          view.emplace(*dec, stores[0], ranks, execute);
        };
      } else if (cfg.method == Method::Shift) {
        const auto axis_ranks = shift_neighbors(cart);
        for (auto& st : stores) shs.emplace_back(*dec, st, axis_ranks);
        rebuild_fn = [&, axis_ranks] {
          shs[static_cast<std::size_t>(input)] = ShiftExchanger<3>(
              *dec, stores[static_cast<std::size_t>(input)], axis_ranks);
        };
        plan_copies = 2;
      } else if (cfg.method == Method::Network) {
        floor.emplace(*dec, stores[0], ranks);
        engine = {&*floor, &*floor};
        rebuild_fn = [&, ranks] { floor.emplace(*dec, stores[0], ranks); };
      } else {
        const auto mode = cfg.method == Method::Layout
                              ? Exchanger<3>::Mode::Layout
                              : Exchanger<3>::Mode::Basic;
        for (auto& s : stores) exs.emplace_back(*dec, s, ranks, mode);
        engine = {&exs[0], &exs[1]};
        rebuild_fn = [&, ranks, mode] {
          exs[static_cast<std::size_t>(input)] = Exchanger<3>(
              *dec, stores[static_cast<std::size_t>(input)], ranks, mode);
        };
        plan_copies = 2;
      }

      // Initialize the input fields from global coordinates.
      CellArray3 seed(Box<3>{{0, 0, 0}, N});
      for (int f = 0; f < cfg.fields; ++f) {
        fill_init(seed.raw().data(), seed.box(), offset, f);
        cells_to_bricks(*dec, seed, stores[0], f);
      }

      // The scheduler's pieces of one step form a single fused sweep that
      // publishes per-region completion, so the fixed per-sweep cost
      // (OpenMP fork/join on CPU, kernel launch on GPU) and the per-chunk
      // UM touch pass are charged once per step — on the `first` piece —
      // and later pieces cost marginal volume only. A whole-box step is
      // its own first piece.
      compute_fn = [&](const Box<3>& box, bool first) {
        if (execute)
          compute_bricks(cfg, *dec, *info,
                         stores[static_cast<std::size_t>(input)],
                         stores[static_cast<std::size_t>(1 - input)], box);
        double secs;
        if (cfg.gpu != GpuMode::None) {
          secs = device->kernel_seconds(box.volume(), flops, kBytesPerCell);
          if (!first) {
            secs -= cfg.machine.gpu.launch_overhead;
          } else {
            // The kernel touches chunk *payloads* only: page-padding tails
            // are never read by compute, so they stay wherever the
            // exchange left them.
            for (int f = 0; f < 2; ++f) {
              BrickStorage& st = stores[static_cast<std::size_t>(f)];
              for (const auto& c : st.chunks())
                secs += device->touch_device(st.data() + c.offset, c.bytes);
            }
          }
        } else {
          secs = model::cpu_stencil_seconds(cfg.machine,
                                            box.volume() * cfg.fields, flops,
                                            kBytesPerCell, false);
          if (!first) secs -= cfg.machine.sweep_overhead;
        }
        comm.compute(secs);
      };

      validate_fn = [&]() -> bool {
        const int total_steps =
            cfg.warmup_exchanges * static_cast<int>(k) + cfg.timesteps;
        for (int f = 0; f < cfg.fields; ++f) {
          CellArray3 got(Box<3>{{0, 0, 0}, N});
          bricks_to_cells(*dec, stores[static_cast<std::size_t>(input)], f,
                          got);
          CellArray3 ref(Box<3>{{0, 0, 0}, global_ext});
          fill_init(ref.raw().data(), ref.box(), Vec3{0, 0, 0}, f);
          stencil::evolve_reference(ref, total_steps, cfg.use125);
          const auto got_row = [&](const Vec3& p) { return got.row(p); };
          if (!matches_reference(N, got_row, ref, offset)) return false;
        }
        return true;
      };
    } else {
      // Array family (YASK / MPI_Types baselines). Multi-field runs use
      // contiguous field-major ArrayFields slabs so one message per
      // neighbor carries every field; fields == 1 keeps the historical
      // CellArray3 path byte-identical.
      const Box<3> frame{Vec3{0, 0, 0} - Vec3::fill(g), N + Vec3::fill(g)};
      if (cfg.fields > 1) {
        afields.emplace_back(frame, cfg.fields);
        afields.emplace_back(frame, cfg.fields);
      } else {
        fields.emplace_back(frame);
        fields.emplace_back(frame);
      }
      if (cfg.gpu != GpuMode::None && !staged) {
        for (auto& f : fields)
          regs.range(f.raw().data(), f.raw().size() * sizeof(double), space);
      }
      const auto dirs = Cart<3>::all_directions();
      std::vector<int> ranks;
      for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
      if (cfg.method == Method::Yask) {
        packer.emplace(N, g, dirs, ranks, cfg.fields);
        engine = {&*packer, &*packer};
        // On-node cost per half-exchange: CPU runs price the strided
        // pack; manual GPU staging prices a bandwidth-bound pack kernel
        // plus shuttling the 26 packed buffers across the CPU-GPU link
        // (Section 5's motivating workflow).
        auto onnode_seconds = [&, staged](std::size_t bytes) {
          if (!staged)
            return model::pack_seconds(cfg.machine,
                                       static_cast<std::int64_t>(bytes), 26);
          const auto& gm = cfg.machine.gpu;
          const double b = static_cast<double>(bytes);
          return b / gm.hbm_bw + gm.launch_overhead  // pack kernel
                 + b / gm.link_bw + 26 * gm.launch_overhead;  // cudaMemcpy
        };
        // onnode_seconds is captured by value: it must outlive this block.
        pack_fn = [&, onnode_seconds] {
          const std::size_t b =
              cfg.fields > 1
                  ? packer->pack(afields[static_cast<std::size_t>(input)])
                  : packer->pack(fields[static_cast<std::size_t>(input)]);
          comm.compute(onnode_seconds(b));
        };
        unpack_fn = [&, onnode_seconds] {
          const std::size_t b =
              cfg.fields > 1
                  ? packer->unpack(afields[static_cast<std::size_t>(input)])
                  : packer->unpack(fields[static_cast<std::size_t>(input)]);
          comm.compute(onnode_seconds(b));
        };
        // dirs/ranks are block-local; the rebuild closure outlives them.
        rebuild_fn = [&, dirs, ranks] {
          packer.emplace(N, g, dirs, ranks, cfg.fields);
        };
      } else if (cfg.method == Method::MpiTypes) {
        if (cfg.fields > 1) {
          typer.emplace(N, g, dirs, ranks, afields[0]);
        } else {
          typer.emplace(N, g, dirs, ranks, fields[0]);
        }
        engine = {&*typer, &*typer};
        for (std::size_t i = 0; i < 2; ++i)
          origin[i] = cfg.fields > 1 ? afields[i].raw().data()
                                     : fields[i].raw().data();
        rebuild_fn = [&, dirs, ranks] {
          if (cfg.fields > 1) {
            typer.emplace(N, g, dirs, ranks, afields[0]);
          } else {
            typer.emplace(N, g, dirs, ranks, fields[0]);
          }
        };
      } else {
        brickx::fail("unsupported array-family method");
      }

      // Ghost seeds are overwritten by the exchange.
      if (cfg.fields > 1) {
        for (int f = 0; f < cfg.fields; ++f)
          fill_init(afields[0].field_base(f), frame, offset, f);
      } else {
        fill_init(fields[0].raw().data(), frame, offset, 0);
      }

      compute_fn = [&](const Box<3>& box, bool /*first*/) {
        if (execute) {
          if (cfg.fields > 1) {
            // Field slabs are laid out exactly like a frame-shaped
            // CellArray3, so the span kernels run each field in place.
            auto* s125 = cfg.naive_kernels ? &stencil::apply125_span_naive
                                           : &stencil::apply125_span;
            auto* s7 = cfg.naive_kernels ? &stencil::apply7_span_naive
                                         : &stencil::apply7_span;
            ArrayFields& src = afields[static_cast<std::size_t>(input)];
            ArrayFields& dst = afields[static_cast<std::size_t>(1 - input)];
            for (int f = 0; f < cfg.fields; ++f)
              (cfg.use125 ? s125 : s7)(src.box(), src.field_base(f),
                                       dst.field_base(f), box);
          } else {
            auto* a125 = cfg.naive_kernels ? &stencil::apply125_array_naive
                                           : &stencil::apply125_array;
            auto* a7 = cfg.naive_kernels ? &stencil::apply7_array_naive
                                         : &stencil::apply7_array;
            (cfg.use125 ? a125 : a7)(
                fields[static_cast<std::size_t>(input)],
                fields[static_cast<std::size_t>(1 - input)], box);
          }
        }
        double secs;
        if (cfg.gpu != GpuMode::None) {
          // Staged fields are unregistered (plain host memory standing in
          // for device arrays), so touch_device is a no-op for them.
          secs = device->kernel_seconds(box.volume(), flops, kBytesPerCell);
          for (auto& f : fields)
            secs += device->touch_device(f.raw().data(),
                                         f.raw().size() * sizeof(double));
        } else {
          secs = model::cpu_stencil_seconds(cfg.machine,
                                            box.volume() * cfg.fields, flops,
                                            kBytesPerCell,
                                            cfg.method == Method::Yask);
        }
        comm.compute(secs);
      };

      validate_fn = [&]() -> bool {
        const int total_steps =
            cfg.warmup_exchanges * static_cast<int>(k) + cfg.timesteps;
        for (int f = 0; f < cfg.fields; ++f) {
          CellArray3 ref(Box<3>{{0, 0, 0}, global_ext});
          fill_init(ref.raw().data(), ref.box(), Vec3{0, 0, 0}, f);
          stencil::evolve_reference(ref, total_steps, cfg.use125);
          const auto got_row = [&](const Vec3& p) -> const double* {
            const auto in = static_cast<std::size_t>(input);
            return cfg.fields > 1 ? afields[in].row(f, p) : fields[in].row(p);
          };
          if (!matches_reference(N, got_row, ref, offset)) return false;
        }
        return true;
      };
    }

    // ---- per-exchange accounting and the cost of one plan build ------------
    const bool shift = cfg.method == Method::Shift;
    const PlanCost plan_cost =
        shift ? shs[0].setup_cost() : engine[0]->setup_cost();
    out.msgs = shift ? shs[0].send_message_count()
                     : engine[0]->send_message_count();
    out.wire = out.payload =
        shift ? shs[0].send_byte_count() : engine[0]->send_byte_count();
    if (view) {
      out.payload = view->payload_byte_count();
      out.padding = view->padding_overhead_percent();
    }

    // ---- plan lifetime (DESIGN.md §9) --------------------------------------
    out.builds = plan_copies;
    if (cfg.plan == PlanMode::BuildOnce) {
      // Bind the frozen plan(s) and charge the modeled one-time build cost
      // now — before warmup and the barrier below. The barrier equalizes
      // every rank's clock, so measured results stay byte-identical to
      // pre-plan builds; the setup cost is visible only through
      // Result::setup_seconds and the trace.
      const double t0 = comm.clock().now();
      {
        obs::ObsSpan sp(obs::Cat::Setup, "plan_setup", -1);
        if (shift) {
          for (auto& sh : shs) sh.make_persistent(comm);
        } else if (cfg.overlap) {
          // The exchange period is even, so engine 0 carries every round
          // on both the consumer (s == 0) and the producer (s == k-1)
          // side; a second exchanger is never used under overlap.
          engine[0]->make_partitioned(comm);
        } else {
          // Persistent MPI freezes the buffer address; binding to origin 0
          // is safe because every round lands on input 0 (the even period
          // again), which the engine checks on every start.
          engine[0]->make_persistent(comm, origin[0]);
          if (engine[1] != nullptr && engine[1] != engine[0])
            engine[1]->make_persistent(comm, origin[1]);
        }
        double secs = 0;
        for (int i = 0; i < plan_copies; ++i)
          secs += plan_cost.seconds(comm.net());
        comm.compute(secs);
      }
      out.setup = comm.clock().now() - t0;
    }
    // The engine this round's input buffer exchanges on. MemMap has none
    // for stores[1]: the even exchange period never lands a round there.
    auto round_engine = [&]() -> ExchangePlan& {
      ExchangePlan* e = engine[static_cast<std::size_t>(input)];
      BX_CHECK(e != nullptr, "exchange landed on a buffer without a plan");
      return *e;
    };

    // ---- the timestep loop -------------------------------------------------
    // Each phase is both delta-accumulated on the virtual clock (works with
    // obs compiled out) and wrapped in a step-tagged ObsSpan; after the loop
    // the obs build recomputes the phase totals from the spans (see
    // phase_sum) as a live cross-check that the trace carries the ground
    // truth — the two agree bit-exactly by construction.
    auto now = [&] { return comm.clock().now(); };
    // ---- overlap dependency-scheduler state --------------------------------
    // A partitioned exchange round spans two steps: the *producer* step
    // (s == k-1) opens the round and readies each outgoing partition as its
    // source surface region finishes computing, so boundary data flows
    // while the interior is still being produced; the *consumer* step
    // (s == 0, next round) computes ghost-free cells first and then waits
    // only on the partitions each shell piece actually reads.
    const int total_step_count =
        cfg.warmup_exchanges * static_cast<int>(k) + cfg.timesteps;
    int steps_done = 0;
    bool round_open = false;
    // Cell-coordinate box of region ordinal `o` (brick grid → cells; ghost
    // regions land in [-g, 0) ∪ [N, N+g) bands, matching the coordinates
    // the shell pieces read).
    auto region_cell_box = [&](int o) {
      const auto& rg = dec->regions()[static_cast<std::size_t>(o)];
      return Box<3>{rg.box.lo * dec->brick_dims(),
                    rg.box.hi * dec->brick_dims()};
    };
    auto boxes_overlap = [](const Box<3>& a, const Box<3>& b) {
      for (int i = 0; i < 3; ++i)
        if (a.lo[i] >= b.hi[i] || b.lo[i] >= a.hi[i]) return false;
      return true;
    };
    auto one_step = [&](int step, bool measured) {
      const std::int64_t s = step % k;
      // No producer step ahead of the last step overall, and none across
      // the warmup→measured barrier: pre-starting the first measured round
      // during (unmeasured) warmup would silently move its injection cost
      // out of the measured window. The first measured round cold-starts
      // at its s == 0 instead, exactly like the first warmup round.
      const bool last_warmup =
          ++steps_done == cfg.warmup_exchanges * static_cast<int>(k);
      const bool no_prestart = steps_done == total_step_count || last_warmup;
      // Measured steps tag spans with their timestep; warmup steps get
      // distinct ids -2, -3, ... so the critical-path analyzer can keep
      // per-step phase identity without them ever colliding with measured
      // steps (phase_sum and the exporters filter on step >= 0 / < 0, so
      // which negative id a warmup span carries is invisible to them).
      const std::int64_t id = measured ? step : -2 - step;
      if (s == 0 && cfg.plan == PlanMode::PerRound) {
        // PerRound ablation: tear down and rebuild this round's plan inside
        // the measured loop, charging the modeled build cost each time.
        const double r0 = now();
        {
          obs::ObsSpan sp(obs::Cat::Setup, "replan", id);
          rebuild_fn();
          comm.compute(plan_cost.seconds(comm.net()));
          ++out.builds;
        }
        if (measured) out.replan += now() - r0;
      }
      if (s == 0 && cfg.overlap) {
        ExchangePlan& pe = *engine[0];
        // Consumer side of a partitioned round. The round was normally
        // opened (and every partition readied) by the previous producer
        // step; the first round of the run cold-starts here instead, since
        // its boundary data came from initialization, not a prior step.
        const double t0 = now();
        if (!round_open) {
          obs::ObsSpan sp(obs::Cat::Call, "call", id);
          pe.part_start();
          const int nsend = static_cast<int>(pe.send_parts().size());
          for (int j = 0; j < nsend; ++j) pe.part_pready(j);
          round_open = true;
        }
        const double t1 = now();
        // Interior outputs read no ghost data: compute them while the
        // remaining partitions are still in flight on the virtual clock.
        const Box<3> whole = stencil::expansion_output_box<3>(N, g, r, 0);
        const Box<3> interior{Vec3::fill(r), N - Vec3::fill(r)};
        {
          obs::ObsSpan sp(obs::Cat::Calc, "calc", id);
          compute_fn(interior, /*first=*/true);
        }
        const double t2 = now();
        // Shell pieces wait only on the ghost partitions their stencil
        // footprint (piece expanded by the radius) actually reads.
        double shell_wait = 0, shell_calc = 0;
        const std::vector<PartSpec>& rp = pe.recv_parts();
        std::vector<char> consumed(rp.size(), 0);
        for (const Box<3>& b : stencil::shell_boxes<3>(whole, interior)) {
          const Box<3> need{b.lo - Vec3::fill(r), b.hi + Vec3::fill(r)};
          const double w0 = now();
          {
            obs::ObsSpan sp(obs::Cat::Wait, "wait", id);
            for (std::size_t j = 0; j < rp.size(); ++j) {
              if (consumed[j]) continue;
              if (!boxes_overlap(region_cell_box(rp[j].region), need))
                continue;
              pe.part_arrived(static_cast<int>(j));
              consumed[j] = 1;
            }
          }
          const double w1 = now();
          {
            obs::ObsSpan sp(obs::Cat::Calc, "calc", id);
            compute_fn(b, /*first=*/false);
          }
          shell_wait += w1 - w0;
          shell_calc += now() - w1;
        }
        const double t3 = now();
        {
          obs::ObsSpan sp(obs::Cat::Wait, "wait", id);
          pe.part_finish();
          round_open = false;
        }
        const double t4 = now();
        if (measured) {
          out.call += t1 - t0;
          out.calc += (t2 - t1) + shell_calc;
          out.wait += shell_wait + (t4 - t3);
        }
        input = 1 - input;
        return;
      }
      if (s == k - 1 && cfg.overlap && !no_prestart) {
        ExchangePlan& pe = *engine[0];
        // Producer side: open the next round up front (receives post
        // first), then compute this step's boundary regions one by one,
        // readying each outgoing partition the moment its source region is
        // done, and finish with the interior — which overlaps with every
        // partition already in flight.
        const double t0 = now();
        {
          obs::ObsSpan sp(obs::Cat::Call, "call", id);
          pe.part_start();
          round_open = true;
        }
        const double t1 = now();
        double prod_calc = 0, prod_call = 0;
        const std::vector<PartSpec>& sp_tbl = pe.send_parts();
        bool first = true;
        for (int o = 0; o < dec->surface_region_count(); ++o) {
          const double c0 = now();
          {
            obs::ObsSpan sp(obs::Cat::Calc, "calc", id);
            compute_fn(region_cell_box(o), first);
          }
          first = false;
          const double c1 = now();
          {
            obs::ObsSpan sp(obs::Cat::Call, "call", id);
            for (std::size_t j = 0; j < sp_tbl.size(); ++j)
              if (sp_tbl[j].region == o) pe.part_pready(static_cast<int>(j));
          }
          prod_calc += c1 - c0;
          prod_call += now() - c1;
        }
        {
          const double c0 = now();
          obs::ObsSpan sp(obs::Cat::Calc, "calc", id);
          compute_fn(region_cell_box(dec->interior_ordinal()),
                     /*first=*/false);
          prod_calc += now() - c0;
        }
        if (measured) {
          out.call += (t1 - t0) + prod_call;
          out.calc += prod_calc;
        }
        input = 1 - input;
        return;
      }
      if (s == 0) {
        const double t0 = now();
        if (pack_fn) {
          obs::ObsSpan sp(obs::Cat::Pack, "pack", id);
          pack_fn();
        }
        const double t1 = now();
        {
          obs::ObsSpan sp(obs::Cat::Call, "call", id);
          if (!shift)
            round_engine().start(comm,
                                 origin[static_cast<std::size_t>(input)]);
        }
        const double t2 = now();
        {
          obs::ObsSpan sp(obs::Cat::Wait, "wait", id);
          // Shift's phases wait on each other: bill the whole exchange to
          // the wait phase (its call phase is empty).
          if (shift) {
            shs[static_cast<std::size_t>(input)].exchange(comm);
          } else {
            round_engine().finish(comm);
          }
        }
        const double t3 = now();
        if (unpack_fn) {
          obs::ObsSpan sp(obs::Cat::Pack, "pack", id);
          unpack_fn();
        }
        const double t4 = now();
        if (measured) {
          out.pack += (t1 - t0) + (t4 - t3);
          out.call += t2 - t1;
          out.wait += t3 - t2;
        }
      }
      const double c0 = now();
      {
        obs::ObsSpan sp(obs::Cat::Calc, "calc", id);
        compute_fn(stencil::expansion_output_box<3>(N, g, r, s),
                   /*first=*/true);
      }
      if (measured) out.calc += now() - c0;
      input = 1 - input;
    };

    for (int w = 0; w < cfg.warmup_exchanges; ++w)
      for (int s = 0; s < static_cast<int>(k); ++s)
        // Pass the global warmup ordinal so each warmup step's id is
        // unique; one_step's `step % k` recovers the within-round phase.
        one_step(w * static_cast<int>(k) + s, /*measured=*/false);
    comm.barrier();
    const double t_begin = now();
    for (int step = 0; step < cfg.timesteps; ++step)
      one_step(step, /*measured=*/true);
    out.span = comm.allreduce_max(now() - t_begin);

#if BRICKX_OBS
    // Recompute the phase totals from the recorded spans. phase_sum repeats
    // the per-step accumulation order of the deltas above, so this is
    // bit-exact with them — the trace *is* the measurement.
    {
      const obs::RankLog& lg = col.log(comm.rank());
      out.calc = obs::phase_sum(lg, obs::Cat::Calc, "calc");
      out.pack = obs::phase_sum(lg, obs::Cat::Pack, "pack");
      out.call = obs::phase_sum(lg, obs::Cat::Call, "call");
      out.wait = obs::phase_sum(lg, obs::Cat::Wait, "wait");
      // The one-time plan_setup span carries step = -1, so phase_sum only
      // sees the measured in-loop rebuilds — matching out.replan's deltas.
      out.replan = obs::phase_sum(lg, obs::Cat::Setup, "replan");
    }
#endif
    // Per-rank metrics into the obs registry (the thread is still bound).
    const double steps_d = static_cast<double>(cfg.timesteps);
    obs::counter_add("comm.msgs_sent", comm.counters().msgs_sent);
    obs::counter_add("comm.bytes_sent", comm.counters().bytes_sent);
    obs::counter_add("comm.msgs_recv", comm.counters().msgs_recv);
    obs::counter_add("comm.bytes_recv", comm.counters().bytes_recv);
    obs::gauge_max("comm.max_inflight_reqs",
                   static_cast<double>(comm.counters().max_inflight_reqs));
    obs::hist_add("harness.calc_s", out.calc / steps_d);
    obs::hist_add("harness.pack_s", out.pack / steps_d);
    obs::hist_add("harness.call_s", out.call / steps_d);
    obs::hist_add("harness.wait_s", out.wait / steps_d);
    obs::hist_add("harness.plan_setup_s", out.setup);
    obs::hist_add("harness.replan_s", out.replan / steps_d);
    obs::counter_add("plan.builds", out.builds);

    if (validate) out.validated = validate_fn();
    outs[static_cast<std::size_t>(comm.rank())] = out;
  });

  // ---- aggregate -----------------------------------------------------------
  Result res;
  const double steps = static_cast<double>(cfg.timesteps);
  bool all_valid = true;
  for (const RankOut& o : outs) {
    res.calc.add(o.calc / steps);
    res.pack.add(o.pack / steps);
    res.call.add(o.call / steps);
    res.wait.add(o.wait / steps);
    res.plan_setup.add(o.setup);
    res.replan_per_step += o.replan / steps / static_cast<double>(nranks);
    all_valid = all_valid && o.validated;
  }
  res.setup_seconds = res.plan_setup.avg();
  res.plan_builds_per_rank = outs[0].builds;
  res.total_seconds = outs[0].span;
  res.calc_per_step = res.calc.avg();
  res.comm_per_step = res.pack.avg() + res.call.avg() + res.wait.avg();
  res.gstencils = static_cast<double>(cfg.subdomain.prod()) * nranks * steps /
                  res.total_seconds / 1e9;
  res.msgs_per_rank = outs[0].msgs;
  res.wire_bytes_per_rank = outs[0].wire;
  res.payload_bytes_per_rank = outs[0].payload;
  res.padding_percent = outs[0].padding;
  res.msgs_recv_per_rank = rt.final_counters(0).msgs_recv;
  res.bytes_recv_per_rank = rt.final_counters(0).bytes_recv;
  res.msgs_intra_per_rank = rt.final_counters(0).msgs_intra;
  res.msgs_inter_per_rank = rt.final_counters(0).msgs_inter;
  res.bytes_intra_per_rank = rt.final_counters(0).bytes_intra;
  res.bytes_inter_per_rank = rt.final_counters(0).bytes_inter;
  res.transport_stats = rt.transport_stats();
  for (int rk = 0; rk < nranks; ++rk)
    res.max_inflight_reqs =
        std::max(res.max_inflight_reqs, rt.final_counters(rk).max_inflight_reqs);
  res.validated = validate && all_valid;
  if (faults) res.fault_counts = faults->counts();

  if (cfg.fabric != netsim::FabricKind::Flat) {
    // Fabric-level observability: only for routed fabrics, so the default
    // flat configuration's outputs (results, metrics, traces) stay
    // byte-identical to pre-netsim builds.
    const netsim::FabricStats fs = rt.fabric().stats();
    if (fs.fabric_messages > 0)
      res.avg_hops = static_cast<double>(fs.hop_sum) /
                     static_cast<double>(fs.fabric_messages);
    if (fs.messages > 0)
      res.queue_s_per_msg =
          fs.queue_seconds / static_cast<double>(fs.messages);
    res.max_link_sharing = fs.max_link_sharing;
    res.busiest_link_util = fs.busiest_link_util;
    res.fabric_msgs = fs.fabric_messages;
    obs::RankLog& lg = col.log(0);
    lg.counter_add("net.fabric_msgs", fs.fabric_messages);
    lg.counter_add("net.hop_sum", fs.hop_sum);
    lg.counter_add("net.links", fs.links);
    lg.gauge_max("net.max_link_sharing", fs.max_link_sharing);
    lg.gauge_max("net.busiest_link_util", fs.busiest_link_util);
    lg.hist_add("net.queue_s_per_msg", res.queue_s_per_msg);
  }

  if (cfg.transport != transport::Kind::Flat) {
    // Transport-tier observability; gated like the fabric block above so the
    // default flat transport's outputs stay byte-identical.
    const transport::Stats& ts = res.transport_stats;
    obs::RankLog& lg = col.log(0);
    lg.counter_add("transport.onnode_msgs", ts.onnode_msgs);
    lg.counter_add("transport.onnode_bytes", ts.onnode_bytes);
    lg.counter_add("transport.onnode_copies", ts.onnode_copies);
    lg.counter_add("transport.agg_frames", ts.agg_frames);
    lg.counter_add("transport.agg_submsgs", ts.agg_submsgs);
    lg.counter_add("transport.agg_frame_bytes", ts.agg_frame_bytes);
  }

  // Hand the experiment's trace to the active bench session (if any) under
  // a "Method/gpu" label.
  rt.set_collector(nullptr);
  if (obs::Session* ses = obs::Session::active()) {
    std::string label = method_name(cfg.method);
    switch (cfg.gpu) {
      case GpuMode::None:
        break;
      case GpuMode::CudaAware:
        label += "/cuda-aware";
        break;
      case GpuMode::Unified:
        label += "/um";
        break;
      case GpuMode::Staged:
        label += "/staged";
        break;
    }
    ses->absorb(std::move(label), std::move(col));
  }
  return res;
}

}  // namespace brickx::harness
