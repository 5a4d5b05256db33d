#include "gpusim/device.h"

#include <cstring>

#include "common/error.h"
#include "obs/obs.h"

namespace brickx::gpu {

void Device::register_range(const void* base, std::size_t bytes,
                            mpi::MemSpace space) {
  BX_CHECK(space != mpi::MemSpace::Host, "register only device/unified");
  std::lock_guard lk(mu_);
  const auto key = reinterpret_cast<std::uintptr_t>(base);
  Range r;
  r.bytes = bytes;
  r.space = space;
  if (space == mpi::MemSpace::Unified) {
    const std::size_t pages = (bytes + model_.page_size - 1) / model_.page_size;
    r.residency.assign(pages, Side::Device);
    r.fragmented.assign(pages, false);
  }
  // Reject overlap with an existing range.
  auto it = ranges_.upper_bound(key);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    BX_CHECK(prev->first + prev->second.bytes <= key,
             "overlapping device range registration");
  }
  if (it != ranges_.end())
    BX_CHECK(key + bytes <= it->first, "overlapping device range registration");
  ranges_.emplace(key, std::move(r));
}

void Device::unregister_range(const void* base) {
  std::lock_guard lk(mu_);
  const auto n =
      ranges_.erase(reinterpret_cast<std::uintptr_t>(base));
  BX_CHECK(n == 1, "range was not registered");
}

void Device::register_alias(const void* base, std::size_t bytes,
                            const void* canonical) {
  std::lock_guard lk(mu_);
  // The canonical span must land entirely in one registered, non-alias
  // unified range.
  const auto key = reinterpret_cast<std::uintptr_t>(canonical);
  auto it = ranges_.upper_bound(key);
  BX_CHECK(it != ranges_.begin(), "alias canonical target not registered");
  --it;
  BX_CHECK(key + bytes <= it->first + it->second.bytes,
           "alias extends past the canonical range");
  BX_CHECK(it->second.alias == 0, "alias of an alias is not supported");
  BX_CHECK(it->second.space == mpi::MemSpace::Unified,
           "aliases only make sense for unified ranges");
  Range r;
  r.bytes = bytes;
  r.space = mpi::MemSpace::Unified;
  r.alias = key;
  ranges_.emplace(reinterpret_cast<std::uintptr_t>(base), std::move(r));
}

std::map<std::uintptr_t, Device::Range>::iterator Device::resolve(
    const void* p, const void** rp) {
  *rp = p;
  const auto key = reinterpret_cast<std::uintptr_t>(p);
  auto it = ranges_.upper_bound(key);
  if (it == ranges_.begin()) return ranges_.end();
  --it;
  if (key >= it->first + it->second.bytes) return ranges_.end();
  if (it->second.alias != 0) {
    const std::uintptr_t redirected = it->second.alias + (key - it->first);
    *rp = reinterpret_cast<const void*>(redirected);
    auto cit = ranges_.upper_bound(redirected);
    if (cit == ranges_.begin()) return ranges_.end();
    --cit;
    if (redirected >= cit->first + cit->second.bytes) return ranges_.end();
    return cit;
  }
  return it;
}

mpi::MemSpace Device::classify(const void* p) const {
  std::lock_guard lk(mu_);
  const void* rp = nullptr;
  auto it = const_cast<Device*>(this)->resolve(p, &rp);
  if (it == const_cast<Device*>(this)->ranges_.end()) return mpi::MemSpace::Host;
  return it->second.space;
}

double Device::migrate(Range& r, std::uintptr_t base, const void* p,
                       std::size_t n, Side to) {
  if (r.space != mpi::MemSpace::Unified || n == 0) return 0.0;
  const auto key = reinterpret_cast<std::uintptr_t>(p);
  const std::size_t first = (key - base) / model_.page_size;
  const std::size_t last =
      (key - base + n - 1) / model_.page_size;  // inclusive
  // A host access not aligned to page boundaries leaves the first/last
  // page "fragmented": part of its data is live on each side. The next
  // device fault on such a page costs extra (Figure 15's unaligned-region
  // compute penalty). Page-aligned accesses — MemMap views — never
  // fragment.
  const bool frag_lo = (key - base) % model_.page_size != 0;
  const bool frag_hi = (key - base + n) % model_.page_size != 0 &&
                       r.bytes > key - base + n;
  std::int64_t moved = 0;
  double extra = 0.0;
  for (std::size_t pg = first; pg <= last && pg < r.residency.size(); ++pg) {
    if (to == Side::Host) {
      const bool partial =
          (pg == first && frag_lo) || (pg == last && frag_hi);
      if (partial) r.fragmented[pg] = true;
      else if (r.residency[pg] != to) r.fragmented[pg] = false;
    } else if (r.fragmented[pg]) {
      extra += model_.fragmented_fault_extra;
      r.fragmented[pg] = false;
    }
    if (r.residency[pg] != to) {
      r.residency[pg] = to;
      ++moved;
    }
  }
  migrations_ += moved;
  double secs = extra;
  if (moved != 0) {
    const double bytes = static_cast<double>(moved) *
                         static_cast<double>(model_.page_size);
    secs = static_cast<double>(moved) * model_.fault_per_page +
           bytes / model_.link_bw + extra;
    obs::counter_add("gpu.pages_migrated", moved);
  }
  // The caller advances its rank clock by the returned seconds, so the
  // migration occupies [now, now + secs) on that rank's timeline.
  if (secs > 0.0) obs::note_cost(obs::Cat::UmMigrate, "um_migrate", secs);
  return secs;
}

double Device::touch_locked(const void* p, std::size_t n, Side to) {
  const void* rp = nullptr;
  auto it = resolve(p, &rp);
  if (it == ranges_.end()) return 0.0;
  return migrate(it->second, it->first, rp, n, to);
}

double Device::touch_host(const void* p, std::size_t n) {
  std::lock_guard lk(mu_);
  return touch_locked(p, n, Side::Host);
}

double Device::touch_device(const void* p, std::size_t n) {
  std::lock_guard lk(mu_);
  return touch_locked(p, n, Side::Device);
}

void Device::touch_host(const void* base, std::span<const Block> blocks,
                        mpi::VClock& clock) {
  const auto* b = static_cast<const std::byte*>(base);
  std::lock_guard lk(mu_);
  for (const Block& blk : blocks)
    clock.advance(touch_locked(b + blk.offset, blk.length, Side::Host));
}

void Device::touch_device(const void* base, std::span<const Block> blocks,
                          double& secs) {
  const auto* b = static_cast<const std::byte*>(base);
  std::lock_guard lk(mu_);
  for (const Block& blk : blocks)
    secs += touch_locked(b + blk.offset, blk.length, Side::Device);
}

double Device::memcpy_h2d(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);
  return static_cast<double>(n) / model_.link_bw + model_.launch_overhead;
}

double Device::memcpy_d2h(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);
  return static_cast<double>(n) / model_.link_bw + model_.launch_overhead;
}

double Device::kernel_seconds(std::int64_t cells, double flops_per_cell,
                              double bytes_per_cell) const {
  const double c = static_cast<double>(cells);
  const double t_mem = c * bytes_per_cell / model_.hbm_bw;
  const double t_flop = c * flops_per_cell / model_.flops;
  return std::max(t_mem, t_flop) + model_.launch_overhead;
}

mpi::MemHooks Device::hooks() {
  mpi::MemHooks h;
  h.classify = [this](const void* p) { return classify(p); };
  h.touch = [this](const void* base, std::span<const Block> blocks,
                   mpi::VClock& clock) { touch_host(base, blocks, clock); };
  return h;
}

}  // namespace brickx::gpu
