#include "decks.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "stencil/stencils.h"
#include "tune/tuner.h"

namespace perfbench {

using brickx::Rng;
using brickx::Vec3;
using brickx::harness::Config;
using brickx::harness::GpuMode;
using brickx::harness::Method;

namespace {

// The deck's strata are fixed, so every seed's deck has the same modelled
// and host cost; the seed draws the run order (and, on `tune`, the layout
// hill-climb seed). It does not reorient subdomains: the cost model is not
// symmetric in x and y (row contiguity), so modelled sums would move by up
// to 25% from seed to seed.
using Triple = std::array<std::int64_t, 3>;

Vec3 vec(const Triple& t) { return Vec3{t[0], t[1], t[2]}; }

/// The `i`-th rotation of `t`, so strata cycle the long axis through z.
Triple rotated(Triple t, std::size_t i) {
  std::rotate(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(i % 3),
              t.end());
  return t;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

// The fig08-fig17 bench family (bench_common.h k1_config / v1_config):
// timing only, flat fabric, exactly one measured exchange batch.
Config paper_config(const brickx::model::Machine& m, Method method,
                    GpuMode gpu, bool use125, const Vec3& subdomain) {
  Config cfg;
  cfg.machine = m;
  cfg.rank_dims = {2, 2, 1};
  cfg.subdomain = subdomain;
  cfg.brick = 8;
  cfg.ghost = 8;
  cfg.use125 = use125;
  cfg.method = method;
  cfg.gpu = gpu;
  cfg.timesteps = use125 ? 4 : 8;
  cfg.warmup_exchanges = 1;
  cfg.execute_kernels = false;
  return cfg;
}

constexpr std::array<Method, 5> kAllMethods = {
    Method::MemMap, Method::Layout, Method::Basic, Method::Yask,
    Method::MpiTypes};

// sweep: every config has the same cell count (2^18 per rank), as a cube
// and as a 32x64x128 slab, so per-experiment host time is one cluster.
// Decks have an odd size, so the median falls on one config's samples
// rather than between the slowest of one and the fastest of the next.
std::vector<Item> sweep_deck() {
  std::vector<Item> deck;
  const auto theta = brickx::model::theta();
  std::size_t stratum = 0;
  for (const Triple t : {Triple{64, 64, 64}, Triple{32, 64, 128}})
    for (const Method m : kAllMethods)
      for (const bool use125 : {false, true})
        deck.push_back({0, "", paper_config(theta, m, GpuMode::None, use125,
                                            vec(rotated(t, stratum++)))});
  // The Network floor the communication figures plot (Figs. 9/14).
  deck.push_back({0, "", paper_config(theta, Method::Network, GpuMode::None,
                                      false, {64, 64, 64})});
  // The summit GPU modes the harness accepts (Section 5 / Figs. 13-17).
  const auto summit = brickx::model::summit();
  const std::array<std::pair<Method, GpuMode>, 4> gpu = {{
      {Method::MemMap, GpuMode::Unified},
      {Method::Layout, GpuMode::CudaAware},
      {Method::MpiTypes, GpuMode::CudaAware},
      {Method::Yask, GpuMode::Staged},
  }};
  for (const auto& [m, g] : gpu) {
    const Vec3 sub = vec(rotated({32, 64, 128}, stratum++));
    deck.push_back({0, "", paper_config(summit, m, g, false, sub)});
    // Two GPUs per node, so the 4 ranks fill whole nodes.
    deck.back().cfg.machine.net.ranks_per_node = 2;
  }
  return deck;
}

std::vector<Item> tune_deck() {
  std::vector<Item> deck;
  std::size_t stratum = 0;
  for (const Method m : {Method::MemMap, Method::Layout})
    for (const bool use125 : {false, true}) {
      Config cfg = paper_config(brickx::model::theta(), m, GpuMode::None,
                                use125,
                                vec(rotated({16, 16, 32}, stratum++)));
      cfg.fabric = cfg.machine.fabric;  // Theta's native dragonfly
      deck.push_back({0, "", cfg});
    }
  return deck;
}

std::vector<Item> exec_deck() {
  std::vector<Item> deck;
  std::size_t stratum = 0;
  auto add = [&](Method m, bool use125, bool overlap) {
    Config cfg = paper_config(brickx::model::theta(), m, GpuMode::None,
                              use125, vec(rotated({32, 32, 48}, stratum++)));
    cfg.machine.net.ranks_per_node = 2;
    cfg.fabric = brickx::netsim::FabricKind::Dragonfly;
    cfg.transport = brickx::transport::Kind::Shm;
    cfg.execute_kernels = true;
    cfg.fields = 2;
    cfg.timesteps = use125 ? 8 : 16;  // two measured exchange batches
    cfg.overlap = overlap;
    deck.push_back({0, "", cfg});
  };
  // Brick methods stream partitioned requests; arrays exchange in bulk.
  for (const Method m : kAllMethods)
    for (const bool use125 : {false, true})
      add(m, use125, m != Method::Yask && m != Method::MpiTypes);
  // One brick config in bulk, so a change that trades the overlap path
  // against bulk exchange shows on both sides.
  add(Method::Layout, false, false);
  return deck;
}

std::string describe(const Config& cfg) {
  const char* gpu = cfg.gpu == GpuMode::None        ? ""
                    : cfg.gpu == GpuMode::CudaAware ? "/CA"
                    : cfg.gpu == GpuMode::Unified   ? "/UM"
                                                    : "/staged";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s%s %s %dpt %lldx%lldx%lld f%d%s",
                cfg.machine.name.c_str(), gpu,
                brickx::harness::method_name(cfg.method),
                cfg.use125 ? 125 : 7,
                static_cast<long long>(cfg.subdomain[0]),
                static_cast<long long>(cfg.subdomain[1]),
                static_cast<long long>(cfg.subdomain[2]), cfg.fields,
                cfg.overlap ? " overlap" : "");
  return buf;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "sweep") return Workload::Sweep;
  if (name == "tune") return Workload::Tune;
  if (name == "exec") return Workload::Exec;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::Sweep:
      return "sweep";
    case Workload::Tune:
      return "tune";
    case Workload::Exec:
      return "exec";
  }
  return "?";
}

std::vector<Item> make_deck(Workload w, std::uint64_t seed) {
  Rng rng(seed * 0x100000001b3ull + static_cast<std::uint64_t>(w) + 1);
  std::vector<Item> deck = w == Workload::Sweep  ? sweep_deck()
                           : w == Workload::Tune ? tune_deck()
                                                 : exec_deck();
  shuffle(deck, rng);
  for (std::size_t i = 0; i < deck.size(); ++i) {
    deck[i].id = static_cast<int>(i);
    deck[i].label = describe(deck[i].cfg);
  }
  return deck;
}

std::uint64_t hill_climb_seed(std::uint64_t seed, const Item& it) {
  return Rng(seed ^ brickx::tune::fnv1a(it.label)).next();
}

Item invalid_item(int id) {
  Config cfg = paper_config(brickx::model::theta(), Method::Network,
                            GpuMode::None, false, {32, 32, 32});
  cfg.overlap = true;
  return {id, "invalid " + describe(cfg), cfg};
}

Config first_result_cut(const Config& cfg) {
  Config c = cfg;
  const std::int64_t k =
      brickx::stencil::steps_per_exchange(cfg.ghost, cfg.use125 ? 2 : 1);
  c.timesteps = static_cast<int>(k);
  c.warmup_exchanges = 0;
  return c;
}

double cell_updates(const Config& cfg) {
  return static_cast<double>((cfg.subdomain * cfg.rank_dims).prod()) *
         cfg.timesteps * cfg.fields;
}

int exchange_rounds(const Config& cfg) {
  const std::int64_t k =
      brickx::stencil::steps_per_exchange(cfg.ghost, cfg.use125 ? 2 : 1);
  return cfg.warmup_exchanges +
         static_cast<int>((cfg.timesteps + k - 1) / k);
}

}  // namespace perfbench
