#include "core/exchange_view.h"

#include "common/error.h"
#include "core/exchange.h"
#include "memmap/pagesize.h"
#include "obs/obs.h"

namespace brickx {

template <int D>
ExchangeView<D>::ExchangeView(const BrickDecomp<D>& dec, BrickStorage& storage,
                              const std::vector<int>& neighbor_ranks,
                              bool alias_storage) {
  obs::ObsSpan span(obs::Cat::MmapSetup, "exchange_view_build");
  BX_CHECK(storage.file() != nullptr,
           "MemMap exchange requires mmap_alloc'd (memfd) storage");
  BX_CHECK(storage.page_size() % mm::host_page_size() == 0,
           "storage page size must be host-page aligned");
  const auto& nbrs = dec.neighbor_order();
  BX_CHECK(neighbor_ranks.size() == nbrs.size(),
           "neighbor rank table does not match the decomposition");
  const auto& chunks = storage.chunks();
  // Views are built after the scan, in scan order, so unmapped ones can be
  // carved from a single buffer sized to their total.
  struct Pending {
    bool send;
    mm::ViewBuilder b;
    PlanWire w;  ///< the wire minus its buffer
  };
  std::vector<Pending> pending;
  // Add chunk `o` to a view and, unless it is empty (no middle band: it
  // contributes nothing and partitioned init rejects zero-size entries),
  // to the wire's partition table.
  auto add_chunk = [&](Pending& p, int o) {
    const auto& c = chunks[static_cast<std::size_t>(o)];
    p.b.add(c.offset, c.padded_bytes);
    if (c.padded_bytes == 0) return;
    p.w.regions.push_back(o);
    p.w.part_bytes.push_back(c.padded_bytes);
  };

  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    const BitSet& nu = nbrs[v];

    // Send view: this neighbor's surface regions, stitched consecutively in
    // layout order (Figure 5).
    Pending sp{true, mm::ViewBuilder(*storage.file()),
               PlanWire{.rank = neighbor_ranks[v], .tag = static_cast<int>(v)}};
    for (int o = 0; o < dec.surface_region_count(); ++o) {
      const auto& r = dec.regions()[static_cast<std::size_t>(o)];
      if (!region_sent_to(r.sigma, nu)) continue;
      add_chunk(sp, o);
      payload_bytes_ +=
          static_cast<std::int64_t>(chunks[static_cast<std::size_t>(o)].bytes);
    }

    // Receive view: the ghost chunks sourced from ν, in the same (sender's
    // layout) order, so one incoming message scatters itself via the page
    // tables.
    Pending rp{false, mm::ViewBuilder(*storage.file()),
               PlanWire{.rank = neighbor_ranks[v],
                        .tag = dec.neighbor_ordinal(nu.flipped())}};
    for (std::size_t o = static_cast<std::size_t>(dec.ghost_first_ordinal());
         o < dec.regions().size(); ++o)
      if (dec.regions()[o].nu == nu) add_chunk(rp, static_cast<int>(o));

    BX_CHECK(sp.b.total() == rp.b.total(),
             "send and receive views disagree in size");
    for (Pending* p : {&sp, &rp})
      if (p->b.total() > 0) pending.push_back(std::move(*p));
    // Plan-cost tally: both builders scanned the region table once each.
    add_cost({.regions = static_cast<std::int64_t>(dec.regions().size())});
  }

  std::size_t total = 0;
  for (const Pending& p : pending) total += p.b.total();
  // Left uninitialized: unmapped views carry timing, never ghost values,
  // and zeroing would touch every view page on every plan build.
  if (!alias_storage)
    unmapped_ = std::make_unique_for_overwrite<std::byte[]>(total);
  std::size_t at = 0;
  for (Pending& p : pending) {
    mm::View view = alias_storage ? p.b.build()
                                  : p.b.build_unmapped(unmapped_.get() + at);
    at += p.b.total();
    p.w.buf = view.data();
    p.w.bytes = view.size();
    if (p.send) {
      add_send(std::move(p.w));
      send_views_.push_back(std::move(view));
    } else {
      add_recv(std::move(p.w));
      recv_views_.push_back(std::move(view));
    }
  }
  add_cost({.mmap_segments = view_segment_count()});
}

template <int D>
double ExchangeView<D>::padding_overhead_percent() const {
  if (payload_bytes_ == 0) return 0.0;
  return 100.0 *
         static_cast<double>(send_byte_count() - payload_bytes_) /
         static_cast<double>(payload_bytes_);
}

template <int D>
std::int64_t ExchangeView<D>::view_segment_count() const {
  std::int64_t n = 0;
  visit_views([&](const mm::View& v) { n += v.segments(); });
  return n;
}

template class ExchangeView<1>;
template class ExchangeView<2>;
template class ExchangeView<3>;

}  // namespace brickx
