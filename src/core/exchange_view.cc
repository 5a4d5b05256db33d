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
  };
  std::vector<Pending> pending;

  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    const BitSet& nu = nbrs[v];

    // Send view: this neighbor's surface regions, stitched consecutively in
    // layout order (Figure 5).
    mm::ViewBuilder sb(*storage.file());
    std::vector<int> sregions;
    std::vector<std::size_t> ssizes;
    for (int o = 0; o < dec.surface_region_count(); ++o) {
      const auto& r = dec.regions()[static_cast<std::size_t>(o)];
      if (!region_sent_to(r.sigma, nu)) continue;
      const auto& c = chunks[static_cast<std::size_t>(o)];
      sb.add(c.offset, c.padded_bytes);
      // Empty regions (no middle band) contribute nothing to the view and
      // cannot be partitions (partitioned init rejects zero-size entries).
      if (c.padded_bytes > 0) {
        sregions.push_back(o);
        ssizes.push_back(c.padded_bytes);
      }
      payload_bytes_ += static_cast<std::int64_t>(c.bytes);
    }
    if (sb.total() > 0) {
      sends_.push_back(VWire{neighbor_ranks[v], static_cast<int>(v), {}});
      pending.push_back({true, sb});
      send_regions_.push_back(std::move(sregions));
      send_sizes_.push_back(std::move(ssizes));
    }

    // Receive view: the ghost chunks sourced from ν, in the same (sender's
    // layout) order, so one incoming message scatters itself via the page
    // tables.
    mm::ViewBuilder rb(*storage.file());
    std::vector<int> rregions;
    std::vector<std::size_t> rsizes;
    for (std::size_t o = static_cast<std::size_t>(dec.ghost_first_ordinal());
         o < dec.regions().size(); ++o) {
      const auto& r = dec.regions()[o];
      if (!(r.nu == nu)) continue;
      const auto& c = chunks[o];
      rb.add(c.offset, c.padded_bytes);
      if (c.padded_bytes > 0) {
        rregions.push_back(static_cast<int>(o));
        rsizes.push_back(c.padded_bytes);
      }
    }
    if (rb.total() > 0) {
      recvs_.push_back(
          VWire{neighbor_ranks[v], dec.neighbor_ordinal(nu.flipped()), {}});
      pending.push_back({false, rb});
      recv_regions_.push_back(std::move(rregions));
      recv_sizes_.push_back(std::move(rsizes));
    }
    BX_CHECK(sb.total() == rb.total(),
             "send and receive views disagree in size");
    // Plan-cost tally: both builders scanned the region table once each.
    scanned_regions_ += static_cast<std::int64_t>(dec.regions().size());
  }

  std::size_t total = 0;
  for (const Pending& p : pending) total += p.b.total();
  // Left uninitialized: unmapped views carry timing, never ghost values,
  // and zeroing would touch every view page on every plan build.
  if (!alias_storage)
    unmapped_ = std::make_unique_for_overwrite<std::byte[]>(total);
  std::size_t si = 0, ri = 0, at = 0;
  for (const Pending& p : pending) {
    VWire& w = p.send ? sends_[si++] : recvs_[ri++];
    w.view = alias_storage ? p.b.build()
                           : p.b.build_unmapped(unmapped_.get() + at);
    at += p.b.total();
  }
}

template <int D>
PlanCost ExchangeView<D>::setup_cost() const {
  PlanCost c;
  c.regions = scanned_regions_;
  c.messages = static_cast<std::int64_t>(sends_.size() + recvs_.size());
  c.mmap_segments = view_segment_count();
  return c;
}

template <int D>
void ExchangeView<D>::make_persistent(mpi::Comm& comm) {
  BX_CHECK(!pset_.bound(), "exchange view already bound to persistent requests");
  BX_CHECK(pending_.empty(), "cannot bind while an exchange is in flight");
  for (VWire& w : recvs_)
    pset_.add_recv(comm.recv_init(w.view.data(), w.view.size(), w.rank, w.tag));
  for (VWire& w : sends_)
    pset_.add_send(comm.send_init(w.view.data(), w.view.size(), w.rank, w.tag));
  pset_.mark_bound();
}

template <int D>
void ExchangeView<D>::make_partitioned(mpi::Comm& comm) {
  BX_CHECK(!part_.bound(),
           "exchange view already bound to partitioned requests");
  BX_CHECK(!pset_.bound(),
           "persistent and partitioned bindings are mutually exclusive");
  BX_CHECK(pending_.empty(), "cannot bind while an exchange is in flight");
  for (std::size_t i = 0; i < recvs_.size(); ++i) {
    VWire& w = recvs_[i];
    part_.add_recv(comm.precv_init(w.view.data(), w.view.size(), w.rank,
                                   w.tag, recv_sizes_[i]),
                   recv_regions_[i], recv_sizes_[i]);
  }
  for (std::size_t i = 0; i < sends_.size(); ++i) {
    VWire& w = sends_[i];
    part_.add_send(comm.psend_init(w.view.data(), w.view.size(), w.rank,
                                   w.tag, send_sizes_[i]),
                   send_regions_[i], send_sizes_[i]);
  }
  part_.mark_bound();
}

template <int D>
void ExchangeView<D>::start(mpi::Comm& comm) {
  BX_CHECK(pending_.empty(), "previous exchange still in flight");
  if (pset_.bound()) {
    pset_.start_all();
    return;
  }
  for (VWire& w : recvs_)
    pending_.push_back(
        comm.irecv(w.view.data(), w.view.size(), w.rank, w.tag));
  for (VWire& w : sends_)
    pending_.push_back(
        comm.isend(w.view.data(), w.view.size(), w.rank, w.tag));
}

template <int D>
void ExchangeView<D>::finish(mpi::Comm& comm) {
  if (pset_.bound()) {
    pset_.wait_all();
    return;
  }
  comm.waitall(pending_);
}

template <int D>
std::int64_t ExchangeView<D>::send_byte_count() const {
  std::int64_t n = 0;
  for (const VWire& w : sends_) n += static_cast<std::int64_t>(w.view.size());
  return n;
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
  for (const VWire& w : sends_) n += w.view.segments();
  for (const VWire& w : recvs_) n += w.view.segments();
  return n;
}

template class ExchangeView<1>;
template class ExchangeView<2>;
template class ExchangeView<3>;

}  // namespace brickx
