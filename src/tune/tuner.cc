#include "tune/tuner.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "core/layout.h"
#include "simmpi/fault.h"

namespace brickx::tune {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string canonical_key(const harness::Config& cfg) {
  std::ostringstream os;
  os << "machine=" << cfg.machine.name
     << ",rpn=" << cfg.machine.net.ranks_per_node;
  os << ",ranks=" << cfg.rank_dims[0] << 'x' << cfg.rank_dims[1] << 'x'
     << cfg.rank_dims[2];
  os << ",sub=" << cfg.subdomain[0] << 'x' << cfg.subdomain[1] << 'x'
     << cfg.subdomain[2];
  os << ",brick=" << cfg.brick << ",ghost=" << cfg.ghost
     << ",use125=" << (cfg.use125 ? 1 : 0)
     << ",method=" << harness::method_name(cfg.method)
     << ",gpu=" << gpu_name(cfg.gpu) << ",steps=" << cfg.timesteps
     << ",warmup=" << cfg.warmup_exchanges << ",page=" << cfg.page_size;
  os << ",exec=" << (cfg.execute_kernels ? 1 : 0)
     << ",naive=" << (cfg.naive_kernels ? 1 : 0)
     << ",validate=" << (cfg.validate ? 1 : 0);
  os << ",layout=";
  for (std::size_t i = 0; i < cfg.layout.order.size(); ++i)
    os << (i ? ":" : "") << cfg.layout.order[i].raw();
  os << ",overlap=" << (cfg.overlap ? 1 : 0)
     << ",fabric=" << netsim::fabric_name(cfg.fabric)
     << ",map=" << netsim::map_name(cfg.mapping)
     << ",faults=" << (cfg.faults.any() ? mpi::describe(cfg.faults) : "none")
     << ",plan=" << (cfg.plan == harness::PlanMode::BuildOnce ? "once" : "round")
     << ",transport=" << transport::kind_name(cfg.transport);
  return os.str();
}

// ---------------------------------------------------------------------------
// EvalCache

EvalCache::EvalCache(int hash_bits)
    : mask_(hash_bits >= 64 ? ~0ull : ((1ull << hash_bits) - 1)) {
  BX_CHECK(hash_bits >= 1 && hash_bits <= 64,
           "EvalCache: hash_bits out of range");
}

std::uint64_t EvalCache::bucket(std::string_view key) const {
  return fnv1a(key) & mask_;
}

std::optional<Evaluation> EvalCache::lookup(const std::string& key) {
  const std::uint64_t b = bucket(key);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = buckets_.find(b);
  if (it == buckets_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  for (const Entry& e : it->second) {
    if (e.key == key) {
      ++stats_.hits;
      return e.eval;
    }
  }
  ++stats_.collisions;  // bucket occupied by different canonical configs
  ++stats_.misses;
  return std::nullopt;
}

void EvalCache::store(const std::string& key, const Evaluation& ev) {
  const std::uint64_t b = bucket(key);
  std::lock_guard<std::mutex> lock(mu_);
  auto& chain = buckets_[b];
  for (const Entry& e : chain)
    if (e.key == key) return;  // racing workers computed the same key
  chain.push_back(Entry{key, ev});
}

EvalCache::Stats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// SearchSpace

SearchSpace SearchSpace::standard(const harness::Config& problem,
                                  std::int64_t layout_budget,
                                  std::uint64_t layout_seed) {
  using harness::Method;
  BX_CHECK(layout_budget >= 1,
           "SearchSpace::standard: layout budget must be at least 1");
  SearchSpace s;
  const bool is_brick =
      problem.method == Method::Basic || problem.method == Method::Layout ||
      problem.method == Method::MemMap || problem.method == Method::Shift ||
      problem.method == Method::Network;
  if (is_brick) {
    s.layouts.push_back({"surface3d", surface3d()});
    s.layouts.push_back({"lexicographic", lexicographic_layout(3)});
    LayoutChoice hc{"hillclimb",
                    optimize_layout(3, layout_budget, layout_seed)};
    bool dup = false;
    for (const LayoutChoice& l : s.layouts)
      dup = dup || l.spec.order == hc.spec.order;
    if (!dup) s.layouts.push_back(std::move(hc));
  } else {
    // Array layouts have no region permutation; keep the harness default.
    s.layouts.push_back({"n/a", LayoutSpec{}});
  }
  if (problem.fabric == netsim::FabricKind::Flat) {
    s.mappings = {netsim::MapKind::Block};  // the flat model ignores mapping
  } else {
    s.mappings = {netsim::MapKind::Block, netsim::MapKind::RoundRobin,
                  netsim::MapKind::Greedy, netsim::MapKind::Rcb,
                  netsim::MapKind::Embed};
  }
  if (is_brick) {
    for (const std::int64_t b : {std::int64_t{4}, std::int64_t{8}}) {
      bool ok = problem.ghost % b == 0;
      for (int a = 0; a < 3; ++a) ok = ok && problem.subdomain[a] % b == 0;
      if (ok) s.bricks.push_back(b);
    }
  }
  if (s.bricks.empty()) s.bricks.push_back(problem.brick);
  if (problem.method == Method::MemMap) {
    s.pages = {0, 16384, 65536};
    if (std::find(s.pages.begin(), s.pages.end(), problem.page_size) ==
        s.pages.end())
      s.pages.push_back(problem.page_size);
  } else {
    s.pages = {problem.page_size};
  }
  return s;
}

// ---------------------------------------------------------------------------
// tune()

namespace {

struct Candidate {
  int layout = 0;
  int mapping = 0;
  int brick = 0;
  int page = 0;
};

harness::Config candidate_config(const harness::Config& problem,
                                 const SearchSpace& space,
                                 const Candidate& c) {
  harness::Config cfg = problem;
  cfg.layout = space.layouts[static_cast<std::size_t>(c.layout)].spec;
  cfg.mapping = space.mappings[static_cast<std::size_t>(c.mapping)];
  cfg.brick = space.bricks[static_cast<std::size_t>(c.brick)];
  cfg.page_size = space.pages[static_cast<std::size_t>(c.page)];
  return cfg;
}

Evaluation evaluate(const harness::Config& cfg) {
  const harness::Result res = harness::run(cfg);
  Evaluation ev;
  ev.total_seconds = res.total_seconds;
  ev.comm_per_step = res.comm_per_step;
  ev.gstencils = res.gstencils;
  return ev;
}

}  // namespace

TuneResult tune(const harness::Config& problem, const SearchSpace& space,
                int threads, EvalCache* cache) {
  BX_CHECK(!space.layouts.empty() && !space.mappings.empty() &&
               !space.bricks.empty() && !space.pages.empty(),
           "tune: empty search space");

  // Enumeration order is the determinism anchor: candidate index j is the
  // argmin tie-break, whatever the worker schedule did.
  std::vector<Candidate> cands;
  std::vector<std::string> keys;
  for (int l = 0; l < static_cast<int>(space.layouts.size()); ++l)
    for (int m = 0; m < static_cast<int>(space.mappings.size()); ++m)
      for (int b = 0; b < static_cast<int>(space.bricks.size()); ++b)
        for (int p = 0; p < static_cast<int>(space.pages.size()); ++p) {
          const Candidate c{l, m, b, p};
          cands.push_back(c);
          keys.push_back(canonical_key(candidate_config(problem, space, c)));
        }
  const int n = static_cast<int>(cands.size());

  std::vector<Evaluation> evals(static_cast<std::size_t>(n));
  std::atomic<int> next{0};
  std::atomic<std::int64_t> runs{0};
  std::exception_ptr first_error;
  std::mutex err_mu;
  auto worker = [&] {
    while (true) {
      const int j = next.fetch_add(1);
      if (j >= n) return;
      try {
        const std::string& key = keys[static_cast<std::size_t>(j)];
        if (cache != nullptr) {
          if (auto hit = cache->lookup(key)) {
            evals[static_cast<std::size_t>(j)] = *hit;
            continue;
          }
        }
        const Evaluation ev = evaluate(
            candidate_config(problem, space, cands[static_cast<std::size_t>(j)]));
        runs.fetch_add(1);
        evals[static_cast<std::size_t>(j)] = ev;
        if (cache != nullptr) cache->store(key, ev);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  const int nthreads = std::max(1, std::min(threads, n));
  if (nthreads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  int best = 0;
  for (int j = 1; j < n; ++j)
    if (evals[static_cast<std::size_t>(j)].total_seconds <
        evals[static_cast<std::size_t>(best)].total_seconds)
      best = j;  // strict <: ties keep the lowest enumeration index

  // Distinct canonical keys among the candidates — deterministic, unlike
  // the cache's scheduling-dependent hit/miss split.
  std::vector<std::string> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  const std::int64_t distinct = static_cast<std::int64_t>(
      std::unique(sorted_keys.begin(), sorted_keys.end()) -
      sorted_keys.begin());

  const Candidate& win = cands[static_cast<std::size_t>(best)];
  TuneResult out;
  out.best_config = candidate_config(problem, space, win);
  out.best = evals[static_cast<std::size_t>(best)];
  out.best_index = best;
  out.layout_name = space.layouts[static_cast<std::size_t>(win.layout)].name;
  out.mapping = space.mappings[static_cast<std::size_t>(win.mapping)];
  out.brick = space.bricks[static_cast<std::size_t>(win.brick)];
  out.page_size = space.pages[static_cast<std::size_t>(win.page)];
  out.candidates = n;
  out.distinct = distinct;
  out.evaluated = runs.load();

  TunedArtifact art = artifact_from(problem);
  art.layout_name = out.layout_name;
  for (const BitSet& s : out.best_config.layout.order)
    art.layout_order.push_back(s.raw());
  art.mapping = out.mapping;
  art.brick = out.brick;
  art.page_size = out.page_size;
  art.predicted_total_seconds = out.best.total_seconds;
  art.predicted_comm_per_step = out.best.comm_per_step;
  art.predicted_gstencils = out.best.gstencils;
  art.candidates = out.candidates;
  art.distinct = out.distinct;
  art.config_hash = fnv1a(keys[static_cast<std::size_t>(best)]);
  out.artifact = art;
  return out;
}

}  // namespace brickx::tune
