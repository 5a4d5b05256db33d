#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>

#include "baseline/array_exchange.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/exchange.h"
#include "core/exchange_view.h"
#include "core/field_set.h"
#include "netsim/fabric.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"
#include "stencil/stencils.h"
#include "tune/tuner.h"

namespace perfbench {
namespace {

using namespace brickx;
using harness::Config;
using harness::Method;
using harness::Result;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Span recorder. Spans are kept in memory and written out at the end; a
// span's parent is the innermost open span of its thread, and a rank
// thread's root span hangs off the replay span of the config it serves.

struct Span {
  std::string name;
  double t0_us = 0, t1_us = 0;
  int id = 0, parent = -1, rank = -1, config = -1;
  double bytes = 0;  ///< computed bytes the call moved (0 if not a copy)
  double cells = 0;  ///< stencil cell updates (kernels only)
};

struct Recorder {
  bool on = false;
  Clock::time_point epoch = Clock::now();
  std::mutex mu;
  std::vector<Span> spans;  // guarded by mu
  std::atomic<int> next_id{0};
  int config = -1;        ///< set on the main thread before ranks spawn
  int config_span = -1;   ///< parent of each rank's root span
};

Recorder g_rec;
thread_local int tl_rank = -1;
thread_local std::vector<int> tl_open;

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   g_rec.epoch)
      .count();
}

class Scope {
 public:
  explicit Scope(const char* name, double bytes = 0, double cells = 0)
      : active_(g_rec.on) {
    if (!active_) return;
    span_.name = name;
    span_.id = g_rec.next_id.fetch_add(1);
    span_.parent = tl_open.empty() ? (tl_rank >= 0 ? g_rec.config_span : -1)
                                   : tl_open.back();
    span_.rank = tl_rank;
    span_.config = g_rec.config;
    span_.bytes = bytes;
    span_.cells = cells;
    tl_open.push_back(span_.id);
    span_.t0_us = now_us();
  }
  ~Scope() {
    if (!active_) return;
    span_.t1_us = now_us();
    tl_open.pop_back();
    std::lock_guard<std::mutex> lock(g_rec.mu);
    g_rec.spans.push_back(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return span_.id; }

 private:
  bool active_;
  Span span_;
};

/// mmap segments the replayed views hold, summed over ranks.
struct Counts {
  std::atomic<std::int64_t> segments{0};
};

// ---------------------------------------------------------------------------
// Layer replay of one config on its own rank threads: the calls
// harness::run makes, in its order, with no virtual-time bookkeeping.

bool is_brick(Method m) {
  return m == Method::Basic || m == Method::Layout || m == Method::MemMap ||
         m == Method::Network;
}

double seed_value(const Vec3& p, int f) {
  return static_cast<double>((p[0] * 31 + p[1] * 17 + p[2] * 7 + f) % 101);
}

template <int B>
void brick_kernel(const Config& cfg, const BrickDecomp<3>& dec,
                  const BrickInfo<3>& info, BrickStorage& in,
                  BrickStorage& out, const Box<3>& box) {
  for (int f = 0; f < cfg.fields; ++f) {
    const std::int64_t off = f * dec.elements_per_brick();
    Brick<B, B, B> bin(&info, &in, off);
    Brick<B, B, B> bout(&info, &out, off);
    if (cfg.use125)
      stencil::apply125_bricks<B, B, B>(dec, bout, bin, box);
    else
      stencil::apply7_bricks<B, B, B>(dec, bout, bin, box);
  }
}

void replay_bricks(const Config& cfg, mpi::Comm& comm, Counts& counts) {
  mpi::Cart<3> cart(comm, cfg.rank_dims);
  const Vec3 N = cfg.subdomain;
  const std::int64_t g = cfg.ghost, r = cfg.use125 ? 2 : 1;
  const std::int64_t k = stencil::steps_per_exchange(g, r);
  const bool memmap = cfg.method == Method::MemMap;
  const char* kernel = cfg.use125 ? "stencil.apply125" : "stencil.apply7";

  std::optional<BrickDecomp<3>> dec;
  std::optional<BrickInfo<3>> info;
  std::vector<int> ranks;
  {
    Scope s("core.decomp");
    dec.emplace(N, g, Vec3::fill(cfg.brick),
                cfg.layout.order.empty() ? surface3d() : cfg.layout);
    info.emplace(dec->brick_info());
    ranks = populate(cart, *dec);
  }
  std::vector<BrickStorage> stores;
  {
    Scope s(memmap ? "memmap.alloc" : "core.alloc");
    std::size_t ps = cfg.page_size;
    if (ps == 0 && cfg.gpu != harness::GpuMode::None)
      ps = cfg.machine.gpu.page_size;
    for (int i = 0; i < 2; ++i)
      stores.push_back(memmap ? dec->mmap_alloc(cfg.fields, ps)
                              : dec->allocate(cfg.fields));
  }
  {
    Scope s("core.field_init",
            static_cast<double>(N.prod() * cfg.fields) * sizeof(double));
    CellArray3 seed(Box<3>{{0, 0, 0}, N});
    const Vec3 offset = cart.coords() * N;
    for (int f = 0; f < cfg.fields; ++f) {
      for_each(seed.box(),
               [&](const Vec3& p) { seed.at(p) = seed_value(p + offset, f); });
      cells_to_bricks(*dec, seed, stores[0], f);
    }
  }

  std::vector<Exchanger<3>> exs;
  std::vector<ExchangeView<3>> evs;
  std::optional<NetworkFloorExchanger<3>> floor;
  if (cfg.method == Method::Network) {
    {
      Scope s("core.plan_build");
      floor.emplace(*dec, stores[0], ranks);
      floor->make_persistent(comm);
    }
    const double bytes = static_cast<double>(floor->send_byte_count());
    for (int round = 0; round < exchange_rounds(cfg); ++round) {
      Scope s("simmpi.floor_exchange", bytes);
      floor->exchange(comm);
    }
    return;  // the floor moves scratch bytes and runs no kernels
  }
  {
    Scope s(memmap ? "memmap.view_build" : "core.plan_build");
    for (int i = 0; i < 2; ++i) {
      if (memmap) {
        evs.emplace_back(*dec, stores[static_cast<std::size_t>(i)], ranks);
        cfg.overlap ? evs.back().make_partitioned(comm)
                    : evs.back().make_persistent(comm);
      } else {
        exs.emplace_back(*dec, stores[static_cast<std::size_t>(i)], ranks,
                         cfg.method == Method::Layout
                             ? Exchanger<3>::Mode::Layout
                             : Exchanger<3>::Mode::Basic);
        cfg.overlap ? exs.back().make_partitioned(comm)
                    : exs.back().make_persistent(comm);
      }
    }
  }
  if (memmap) counts.segments += evs[0].view_segment_count();

  // One exchange round on either exchanger type: partitioned when
  // overlapping (every send partition readied at once), else bulk.
  auto exchange_round = [&](auto& ex, const char* bulk_span) {
    const double bytes = static_cast<double>(ex.send_byte_count());
    if (cfg.overlap) {
      Scope s("simmpi.partitioned", bytes);
      ex.part_start();
      for (std::size_t j = 0; j < ex.send_parts().size(); ++j)
        ex.part_pready(static_cast<int>(j));
      ex.part_finish();
    } else {
      Scope s(bulk_span, bytes);
      ex.exchange(comm);
    }
  };
  int in = 0;
  for (int round = 0; round < exchange_rounds(cfg); ++round) {
    if (memmap)
      exchange_round(evs[static_cast<std::size_t>(in)], "memmap.exchange");
    else
      exchange_round(exs[static_cast<std::size_t>(in)], "core.exchange");
    if (!cfg.execute_kernels) continue;
    for (std::int64_t step = 0; step < k; ++step) {
      const Box<3> box = stencil::expansion_output_box<3>(N, g, r, step);
      BrickStorage& src = stores[static_cast<std::size_t>(in)];
      BrickStorage& dst = stores[static_cast<std::size_t>(1 - in)];
      Scope s(kernel, 0, static_cast<double>(box.volume() * cfg.fields));
      if (cfg.brick == 8)
        brick_kernel<8>(cfg, *dec, *info, src, dst, box);
      else
        brick_kernel<4>(cfg, *dec, *info, src, dst, box);
      in = 1 - in;
    }
  }
  if (memmap) {
    Scope s("memmap.view_free");
    evs.clear();
  }
}

void replay_arrays(const Config& cfg, mpi::Comm& comm) {
  mpi::Cart<3> cart(comm, cfg.rank_dims);
  const Vec3 N = cfg.subdomain;
  const std::int64_t g = cfg.ghost, r = cfg.use125 ? 2 : 1;
  const std::int64_t k = stencil::steps_per_exchange(g, r);
  const Box<3> frame{Vec3{0, 0, 0} - Vec3::fill(g), N + Vec3::fill(g)};
  const auto dirs = mpi::Cart<3>::all_directions();
  std::vector<int> ranks;
  for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
  const char* kernel = cfg.use125 ? "stencil.apply125" : "stencil.apply7";

  // Both baselines keep fields as field-major slabs; one field is the
  // historical CellArray3 layout, which an ArrayFields of 1 matches.
  std::vector<ArrayFields> fields;
  {
    Scope s("baseline.field_init");
    const Vec3 offset = cart.coords() * N;
    for (int i = 0; i < 2; ++i) fields.emplace_back(frame, cfg.fields);
    for (int f = 0; f < cfg.fields; ++f)
      for_each(Box<3>{{0, 0, 0}, N}, [&](const Vec3& p) {
        fields[0].at(f, p) = seed_value(p + offset, f);
      });
  }
  std::optional<baseline::PackExchanger> packer;
  std::optional<baseline::MpiTypesExchanger> typer;
  {
    Scope s("baseline.plan_build");
    if (cfg.method == Method::Yask) {
      packer.emplace(N, g, dirs, ranks, cfg.fields);
      packer->make_persistent(comm);
    } else {
      typer.emplace(N, g, dirs, ranks, fields[0]);
    }
  }
  int in = 0;
  for (int round = 0; round < exchange_rounds(cfg); ++round) {
    ArrayFields& cur = fields[static_cast<std::size_t>(in)];
    if (packer) {
      const double bytes = static_cast<double>(packer->send_byte_count());
      {
        Scope s("baseline.pack", bytes);
        (void)packer->pack(cur);
      }
      {
        Scope s("baseline.comm", bytes);
        packer->start(comm);
        packer->finish(comm);
      }
      Scope s("baseline.unpack", bytes);
      (void)packer->unpack(cur);
    } else {
      Scope s("baseline.ddt", static_cast<double>(typer->send_byte_count()));
      typer->exchange(comm, cur);
    }
    if (!cfg.execute_kernels) continue;
    for (std::int64_t step = 0; step < k; ++step) {
      const Box<3> box = stencil::expansion_output_box<3>(N, g, r, step);
      ArrayFields& src = fields[static_cast<std::size_t>(in)];
      ArrayFields& dst = fields[static_cast<std::size_t>(1 - in)];
      Scope s(kernel, 0, static_cast<double>(box.volume() * cfg.fields));
      for (int f = 0; f < cfg.fields; ++f)
        (cfg.use125 ? stencil::apply125_span : stencil::apply7_span)(
            frame, src.field_base(f), dst.field_base(f), box);
      in = 1 - in;
    }
  }
}

/// Fabric build, an empty spawn, then the layer calls on every rank.
void replay_config(const Item& it, Counts& counts) {
  const Config& cfg = it.cfg;
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  mpi::Runtime rt(nranks, cfg.machine.net);
  rt.set_transport(cfg.transport);
  if (cfg.fabric != netsim::FabricKind::Flat) {
    Scope s("netsim.fabric_build");
    const mpi::LinkParams inter = cfg.machine.net.inter_node;
    rt.set_fabric(netsim::make_fabric(
        cfg.fabric, cfg.mapping, nranks, cfg.machine.net.ranks_per_node,
        inter.bw, inter.alpha / 2.0, inter.alpha,
        harness::exchange_comm_graph(cfg),
        {static_cast<int>(cfg.rank_dims[0]),
         static_cast<int>(cfg.rank_dims[1]),
         static_cast<int>(cfg.rank_dims[2])}));
  }
  {
    Scope s("simmpi.spawn");
    rt.run([](mpi::Comm&) {});
  }
  Scope s("replay.ranks");
  g_rec.config_span = s.id();
  rt.run([&](mpi::Comm& comm) {
    tl_rank = comm.rank();
    Scope root("replay.rank");
    if (is_brick(cfg.method))
      replay_bricks(cfg, comm, counts);
    else
      replay_arrays(cfg, comm);
  });
}

// ---------------------------------------------------------------------------
// Paper contrast: explicit pack vs datatype gather vs mmap view vs the
// contiguous floor, all moving the same ghost-surface payload of one
// subdomain, timed per exchange on every rank.

struct Contrast {
  Vec3 subdomain{64, 64, 64};
  double payload_bytes = 0;  ///< per rank per exchange, from the geometry
  double working_set_mib = 0;
  std::map<std::string, double> gbs;  ///< mean over ranks of per-rank GB/s
};

template <typename F>
double median_round_s(F&& round) {
  constexpr int kWarm = 3, kTimed = 15;
  for (int i = 0; i < kWarm; ++i) round();
  std::vector<double> t;
  for (int i = 0; i < kTimed; ++i) {
    const auto t0 = Clock::now();
    round();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(t);
}

Contrast run_contrast() {
  Contrast c;
  const Config cfg = [] {
    Config x;
    x.rank_dims = {2, 2, 1};
    return x;
  }();
  const Vec3 N = c.subdomain;
  const std::int64_t g = 8;
  const int nranks = static_cast<int>(cfg.rank_dims.prod());
  std::mutex mu;
  mpi::Runtime rt(nranks, cfg.machine.net);
  Scope top("contrast");
  g_rec.config_span = top.id();
  rt.run([&](mpi::Comm& comm) {
    tl_rank = comm.rank();
    Scope root("contrast.rank");
    mpi::Cart<3> cart(comm, cfg.rank_dims);
    const auto dirs = mpi::Cart<3>::all_directions();
    std::vector<int> ranks;
    for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
    CellArray3 field(Box<3>{Vec3{0, 0, 0} - Vec3::fill(g), N + Vec3::fill(g)});
    baseline::PackExchanger packer(N, g, dirs, ranks);
    baseline::MpiTypesExchanger typer(N, g, dirs, ranks, field);
    BrickDecomp<3> dec(N, g, Vec3::fill(8), surface3d());
    const auto branks = populate(cart, dec);
    BrickStorage mapped = dec.mmap_alloc(1);
    BrickStorage packed = dec.allocate(1);
    ExchangeView<3> view(dec, mapped, branks);
    NetworkFloorExchanger<3> floor(dec, packed, branks);

    const double payload = static_cast<double>(packer.send_byte_count());
    std::map<std::string, double> t;
    {
      Scope s("contrast.pack", payload);
      t["baseline.pack_gbs"] = median_round_s([&] {
        (void)packer.pack(field);
      });
      packer.start(comm);  // keep the protocol whole: deliver what was packed
      packer.finish(comm);
      (void)packer.unpack(field);
    }
    {
      Scope s("contrast.ddt", payload);
      t["baseline.ddt_gbs"] =
          median_round_s([&] { typer.exchange(comm, field); });
    }
    {
      Scope s("contrast.view", payload);
      t["memmap.view_gbs"] = median_round_s([&] { view.exchange(comm); });
    }
    {
      Scope s("contrast.floor", payload);
      t["simmpi.floor_gbs"] = median_round_s([&] { floor.exchange(comm); });
    }
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) {
      c.payload_bytes = payload;
      c.working_set_mib =
          (static_cast<double>(field.raw().size() * sizeof(double) +
                               mapped.bytes() + packed.bytes()) +
           2 * payload) /
          (1024.0 * 1024.0);
    }
    for (const auto& [k, secs] : t)
      if (secs > 0) c.gbs[k] += payload / secs / 1e9 / nranks;
  });
  return c;
}

// ---------------------------------------------------------------------------
// Aggregation.

struct LayerTimes {
  std::map<std::string, double> self_ms;  ///< summed self time per span name
  std::map<std::string, double> bytes, cells;
  std::map<std::string, int> count;
};

/// Self time: a span's duration minus the union of its children's
/// intervals (rank threads' children run in parallel, so they may overlap).
LayerTimes aggregate(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans)
    if (s.parent >= 0) kids[s.parent].emplace_back(s.t0_us, s.t1_us);
  LayerTimes lt;
  for (const Span& s : spans) {
    double covered = 0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0, hi = -1;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    lt.self_ms[s.name] += ((s.t1_us - s.t0_us) - covered) / 1e3;
    lt.bytes[s.name] += s.bytes;
    lt.cells[s.name] += s.cells;
    ++lt.count[s.name];
  }
  return lt;
}

double at(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

void write_trace(const std::string& path, Workload w,
                 const std::vector<Item>& deck,
                 const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"provenance\": %s,\n\"configs\": [",
               workload_name(w), provenance_json().c_str());
  for (std::size_t i = 0; i < deck.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", deck[i].label.c_str());
  std::fprintf(f, "],\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"id\": %d, \"parent\": %d, \"rank\": %d, \"config\": %d}",
                 i ? ",\n" : "", s.name.c_str(), s.t0_us, s.t1_us, s.id,
                 s.parent, s.rank, s.config);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("wrote trace: %s (%zu spans)\n", path.c_str(), spans.size());
}

}  // namespace

std::vector<Metric> traced_layers(Workload w, const std::vector<Item>& deck,
                                  const std::vector<TuneProblem>& problems,
                                  const GateOut& gate, std::uint64_t seed,
                                  const std::string& trace_out, Tally& tally) {
  std::vector<std::size_t> use;
  for (std::size_t i = 0; i < deck.size(); ++i)
    if (gate.usable[i]) use.push_back(i);
  const double n_exp = std::max<double>(1.0, static_cast<double>(use.size()));
  const double nranks = 4.0;

  // Alternating untraced and traced replays: the traced ones' excess is the
  // tracing overhead. Only the last traced replay keeps its spans.
  constexpr int kReplays = 3;
  auto replay_all = [&](Counts& counts) {
    const auto t0 = Clock::now();
    for (const std::size_t i : use) {
      g_rec.config = deck[i].id;
      tally.attempt(deck[i].label + " replay",
                    [&] { replay_config(deck[i], counts); });
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<double> untraced, traced;
  Counts counts;
  for (int rep = 0; rep < kReplays; ++rep) {
    Counts scratch;
    g_rec.on = false;
    untraced.push_back(replay_all(scratch));
    {
      std::lock_guard<std::mutex> lock(g_rec.mu);
      g_rec.spans.clear();
    }
    g_rec.on = true;
    traced.push_back(replay_all(rep + 1 == kReplays ? counts : scratch));
  }
  const double untraced_s = median(untraced), traced_s = median(traced);

  // Whole harness::run per config, the tuner's pieces, the reference.
  double keys = 0;  ///< candidate keys built and looked up
  for (const std::size_t i : use) {
    const Item& it = deck[i];
    g_rec.config = it.id;
    Config cfg = it.cfg;
    cfg.validate = false;
    tally.attempt(it.label + " harness", [&] {
      Scope s("harness.run");
      (void)harness::run(cfg);
    });
    if (w == Workload::Exec) {
      const Vec3 global = cfg.subdomain * cfg.rank_dims;
      const int steps = cfg.warmup_exchanges *
                            static_cast<int>(stencil::steps_per_exchange(
                                cfg.ghost, cfg.use125 ? 2 : 1)) +
                        cfg.timesteps;
      Scope s("stencil.reference");
      for (int f = 0; f < cfg.fields; ++f) {
        CellArray3 ref(Box<3>{{0, 0, 0}, global});
        for_each(ref.box(),
                 [&](const Vec3& p) { ref.at(p) = seed_value(p, f); });
        stencil::evolve_reference(ref, steps, cfg.use125);
      }
    }
    if (w != Workload::Tune) continue;
    const tune::SearchSpace& sp = problems[i].space;
    tally.attempt(it.label + " tuner pieces", [&] {
      {
        Scope s("tune.space");
        (void)tune::SearchSpace::standard(it.cfg, 2000,
                                          hill_climb_seed(seed, it));
      }
      tune::EvalCache cache;
      {
        Scope s("tune.key");
        for (const auto& l : sp.layouts)
          for (const auto m : sp.mappings)
            for (const auto b : sp.bricks)
              for (const auto p : sp.pages) {
                Config c = it.cfg;
                c.layout = l.spec;
                c.mapping = m;
                c.brick = b;
                c.page_size = p;
                (void)cache.lookup(tune::canonical_key(c));
                ++keys;
              }
      }
      Scope s("tune.eval");
      (void)harness::run(problems[i].first_candidate);
    });
  }

  g_rec.config = -1;
  const Contrast con = run_contrast();
  g_rec.on = false;

  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(g_rec.mu);
    spans = g_rec.spans;
  }
  const LayerTimes lt = aggregate(spans);

  // Self-time table: every span name, per experiment (rank spans averaged
  // over the ranks).
  std::printf("layer self time (ms per experiment; rank layers averaged "
              "over %g ranks), %zu experiments:\n",
              nranks, use.size());
  for (const auto& [name, ms] : lt.self_ms) {
    const bool on_ranks = std::any_of(spans.begin(), spans.end(),
                                      [&](const Span& s) {
                                        return s.name == name && s.rank >= 0;
                                      });
    std::printf("  %-22s %8d spans %12.4f\n", name.c_str(), lt.count.at(name),
                ms / n_exp / (on_ranks ? nranks : 1.0));
  }
  const double overhead_pct =
      untraced_s > 0 ? (traced_s - untraced_s) / untraced_s * 100.0 : 0.0;
  std::printf("tracing overhead: replay median %.4f s traced vs %.4f s "
              "untraced over %d replays each (%+.2f%%)\n",
              traced_s, untraced_s, kReplays, overhead_pct);

  std::printf("paper contrast on identical %lldx%lldx%lld subdomains "
              "(ghost 8, 7-pt, 4 ranks): payload %.0f bytes per rank per "
              "exchange, computed from the geometry; working set %.1f MiB "
              "per rank, cache-resident (LLC %.0f MiB)\n",
              static_cast<long long>(con.subdomain[0]),
              static_cast<long long>(con.subdomain[1]),
              static_cast<long long>(con.subdomain[2]), con.payload_bytes,
              con.working_set_mib, llc_mib());
  for (const auto& [k, v] : con.gbs)
    std::printf("  %-22s %10.3f GB/s per rank\n", k.c_str(), v);

  // Per-experiment layer time: rank layers are averaged over the ranks.
  auto rank_ms = [&](const std::string& name) {
    return at(lt.self_ms, name) / nranks / n_exp;
  };
  auto main_ms = [&](const std::string& name) {
    return at(lt.self_ms, name) / n_exp;
  };
  auto gbs = [&](const std::string& name) {
    const double ms = at(lt.self_ms, name);
    return ms > 0 ? at(lt.bytes, name) / (ms / 1e3) / 1e9 : 0.0;
  };
  auto mcells = [&](const std::string& name) {
    const double ms = at(lt.self_ms, name) / nranks;  // wall, ranks parallel
    return ms > 0 ? at(lt.cells, name) / (ms / 1e3) / 1e6 : 0.0;
  };

  // Result-derived layer counts (exact, virtual-time side).
  double msgs = 0, wire = 0, pad = 0, hops = 0, queue = 0, sharing = 0,
         inflight = 0, shm = 0, fabric = 0, vcalc = 0, vpack = 0, vcall = 0,
         vwait = 0, hand = 0, tuned = 0, evaluated = 0;
  double memmap_items = 0;
  for (const std::size_t i : use) {
    const Result& r = gate.results[i];
    const double steps = deck[i].cfg.timesteps;
    msgs += static_cast<double>(r.msgs_per_rank);
    wire += static_cast<double>(r.wire_bytes_per_rank) / 1024.0;
    pad += r.padding_percent;
    hops += r.avg_hops;
    queue += r.queue_s_per_msg * 1e6;
    sharing = std::max(sharing, r.max_link_sharing);
    inflight = std::max(inflight, static_cast<double>(r.max_inflight_reqs));
    shm += static_cast<double>(r.transport_stats.onnode_msgs);
    fabric += static_cast<double>(r.fabric_msgs);
    vcalc += r.calc.avg() * steps * 1e3;
    vpack += r.pack.avg() * steps * 1e3;
    vcall += r.call.avg() * steps * 1e3;
    vwait += r.wait.avg() * steps * 1e3;
    if (deck[i].cfg.method == Method::MemMap) ++memmap_items;
    if (w == Workload::Tune) {
      hand += gate.hand[i].total_seconds;
      tuned += gate.tuned[i].best.total_seconds;
      evaluated += static_cast<double>(gate.tuned[i].evaluated);
    }
  }

  double unattributed = 0;
  for (const std::size_t i : use) {
    double run_us = 0, fabric_us = 0, ranks_us = 0;
    for (const Span& s : spans) {
      if (s.config != deck[i].id || s.rank >= 0) continue;
      const double d = s.t1_us - s.t0_us;
      if (s.name == "harness.run") run_us += d;
      if (s.name == "netsim.fabric_build") fabric_us += d;
      if (s.name == "replay.ranks") ranks_us += d;
    }
    unattributed += (run_us - fabric_us - ranks_us) / 1e3;
  }

  if (!trace_out.empty()) write_trace(trace_out, w, deck, spans);
  return {
      {"core.decomp_ms", rank_ms("core.decomp"), "ms"},
      {"core.alloc_ms", rank_ms("core.alloc"), "ms"},
      {"core.field_init_ms", rank_ms("core.field_init"), "ms"},
      {"core.field_init_gbs", gbs("core.field_init"), "GB/s"},
      {"core.plan_build_ms", rank_ms("core.plan_build"), "ms"},
      {"core.exchange_ms", rank_ms("core.exchange"), "ms"},
      {"core.exchange_gbs", gbs("core.exchange"), "GB/s"},
      {"core.msgs_per_rank", msgs / n_exp, "count"},
      {"core.wire_kb_per_rank", wire / n_exp, "KiB"},
      {"core.padding_pct", pad / n_exp, "%"},
      {"memmap.alloc_ms", rank_ms("memmap.alloc"), "ms"},
      {"memmap.view_build_ms", rank_ms("memmap.view_build"), "ms"},
      {"memmap.exchange_ms", rank_ms("memmap.exchange"), "ms"},
      {"memmap.view_free_ms", rank_ms("memmap.view_free"), "ms"},
      {"memmap.segments",
       memmap_items > 0 ? static_cast<double>(counts.segments.load()) /
                              nranks / memmap_items
                        : 0.0,
       "count"},
      {"memmap.view_gbs", at(con.gbs, "memmap.view_gbs"), "GB/s"},
      {"baseline.field_init_ms", rank_ms("baseline.field_init"), "ms"},
      {"baseline.plan_build_ms", rank_ms("baseline.plan_build"), "ms"},
      {"baseline.pack_ms", rank_ms("baseline.pack"), "ms"},
      {"baseline.unpack_ms", rank_ms("baseline.unpack"), "ms"},
      {"baseline.comm_ms", rank_ms("baseline.comm"), "ms"},
      {"baseline.pack_gbs", at(con.gbs, "baseline.pack_gbs"), "GB/s"},
      {"baseline.ddt_ms", rank_ms("baseline.ddt"), "ms"},
      {"baseline.ddt_gbs", at(con.gbs, "baseline.ddt_gbs"), "GB/s"},
      {"simmpi.spawn_ms", main_ms("simmpi.spawn"), "ms"},
      {"simmpi.floor_exchange_ms", rank_ms("simmpi.floor_exchange"), "ms"},
      {"simmpi.floor_gbs", at(con.gbs, "simmpi.floor_gbs"), "GB/s"},
      {"simmpi.partitioned_ms", rank_ms("simmpi.partitioned"), "ms"},
      {"simmpi.max_inflight_reqs", inflight, "count"},
      {"netsim.fabric_build_ms", main_ms("netsim.fabric_build"), "ms"},
      {"netsim.avg_hops", hops / n_exp, "count"},
      {"netsim.queue_us_per_msg", queue / n_exp, "us"},
      {"netsim.max_link_sharing", sharing, "count"},
      {"transport.shm_msgs", shm, "count"},
      {"transport.fabric_msgs", fabric, "count"},
      {"stencil.mcells_per_s_7pt", mcells("stencil.apply7"), "Mcell/s"},
      {"stencil.mcells_per_s_125pt", mcells("stencil.apply125"), "Mcell/s"},
      {"stencil.reference_ms", main_ms("stencil.reference"), "ms"},
      {"harness.run_ms", main_ms("harness.run"), "ms"},
      {"harness.unattributed_ms", unattributed / n_exp, "ms"},
      {"harness.vt_calc_ms", vcalc, "vt_ms"},
      {"harness.vt_pack_ms", vpack, "vt_ms"},
      {"harness.vt_call_ms", vcall, "vt_ms"},
      {"harness.vt_wait_ms", vwait, "vt_ms"},
      {"tune.space_ms", main_ms("tune.space"), "ms"},
      {"tune.eval_ms", main_ms("tune.eval"), "ms"},
      {"tune.key_us", keys > 0 ? at(lt.self_ms, "tune.key") * 1e3 / keys : 0,
       "us"},
      {"tune.evaluated", evaluated, "count"},
      {"tune.cache_hits", static_cast<double>(gate.cache_hits), "count"},
      {"tune.speedup", tuned > 0 ? hand / tuned : 0.0, "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

}  // namespace perfbench
