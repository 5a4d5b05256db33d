#include "core/exchange.h"

#include "common/error.h"

namespace brickx {

namespace {
// Tag space: per (direction, run index). 32 exceeds the maximum possible
// runs per direction (3^D - 1 regions) for D <= 3 and keeps tags unique
// even when several directions map to the same peer rank (small periodic
// grids).
constexpr int kRunTagStride = 32;
}  // namespace

template <int D>
std::vector<int> populate(const mpi::Cart<D>& cart,
                          const BrickDecomp<D>& dec) {
  std::vector<int> ranks;
  ranks.reserve(dec.neighbor_order().size());
  for (const BitSet& dir : dec.neighbor_order())
    ranks.push_back(cart.neighbor(dir));
  return ranks;
}

template std::vector<int> populate<1>(const mpi::Cart<1>&,
                                      const BrickDecomp<1>&);
template std::vector<int> populate<2>(const mpi::Cart<2>&,
                                      const BrickDecomp<2>&);
template std::vector<int> populate<3>(const mpi::Cart<3>&,
                                      const BrickDecomp<3>&);
template std::vector<int> populate<4>(const mpi::Cart<4>&,
                                      const BrickDecomp<4>&);

template <int D>
std::vector<std::vector<int>> plan_send_groups(const BrickDecomp<D>& dec,
                                               const BrickStorage& storage,
                                               const BitSet& dir, bool merge) {
  std::vector<std::vector<int>> groups;
  const auto& chunks = storage.chunks();
  std::size_t run_end = 0;
  for (int o = 0; o < dec.surface_region_count(); ++o) {
    const auto& region = dec.regions()[static_cast<std::size_t>(o)];
    if (!region_sent_to(region.sigma, dir)) continue;
    const auto& c = chunks[static_cast<std::size_t>(o)];
    if (c.bytes == 0) continue;  // empty region (no middle band)
    const bool extends =
        merge && !groups.empty() && c.offset == run_end;
    if (extends) {
      groups.back().push_back(o);
    } else {
      groups.push_back({o});
    }
    run_end = c.offset + c.bytes;
  }
  return groups;
}

template std::vector<std::vector<int>> plan_send_groups<1>(
    const BrickDecomp<1>&, const BrickStorage&, const BitSet&, bool);
template std::vector<std::vector<int>> plan_send_groups<2>(
    const BrickDecomp<2>&, const BrickStorage&, const BitSet&, bool);
template std::vector<std::vector<int>> plan_send_groups<3>(
    const BrickDecomp<3>&, const BrickStorage&, const BitSet&, bool);
template std::vector<std::vector<int>> plan_send_groups<4>(
    const BrickDecomp<4>&, const BrickStorage&, const BitSet&, bool);

template <int D>
Exchanger<D>::Exchanger(const BrickDecomp<D>& dec, BrickStorage& storage,
                        const std::vector<int>& neighbor_ranks, Mode mode)
    : storage_(&storage) {
  const auto& nbrs = dec.neighbor_order();
  BX_CHECK(neighbor_ranks.size() == nbrs.size(),
           "neighbor rank table does not match the decomposition");
  BX_CHECK(storage.chunks().size() == dec.regions().size(),
           "storage was not allocated from this decomposition");
  const bool merge = mode == Mode::Layout;
  const auto& chunks = storage.chunks();

  // Sends: for each direction, runs of surface chunks. Each scan over the
  // region table and each message built is one-time plan work, tallied into
  // the plan's setup cost.
  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    plan_.cost.regions += dec.surface_region_count();
    const auto groups = plan_send_groups(dec, storage, nbrs[v], merge);
    BX_CHECK(static_cast<int>(groups.size()) <= kRunTagStride,
             "tag space too small for run count");
    for (std::size_t k = 0; k < groups.size(); ++k) {
      const auto& g = groups[k];
      const auto& first = chunks[static_cast<std::size_t>(g.front())];
      const auto& last = chunks[static_cast<std::size_t>(g.back())];
      plan_.sends.push_back(PlanWire{neighbor_ranks[v],
                                     static_cast<int>(v) * kRunTagStride +
                                         static_cast<int>(k),
                                     first.offset,
                                     last.offset + last.bytes - first.offset});
      send_regions_.push_back(g);
    }
  }

  // Receives: ghost chunks for source direction ν arrive split exactly the
  // way the sender (our neighbor at ν, same decomposition) splits its sends
  // toward flip(ν).
  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    const BitSet& nu = nbrs[v];
    // The sender (our neighbor at ν) addresses us as its neighbor flip(ν);
    // its tags are based on that direction's ordinal.
    const BitSet from_dir = nu.flipped();
    const int from_v = dec.neighbor_ordinal(from_dir);
    // Our ghost chunks for ν, keyed by the sender's surface signature.
    auto ghost_ordinal = [&](const BitSet& sigma) {
      for (std::size_t o = static_cast<std::size_t>(dec.ghost_first_ordinal());
           o < dec.regions().size(); ++o) {
        const auto& r = dec.regions()[o];
        if (r.nu == nu && r.sigma == sigma) return static_cast<int>(o);
      }
      brickx::fail("ghost chunk not found for (nu, sigma)");
    };
    plan_.cost.regions += dec.surface_region_count();
    const auto groups = plan_send_groups(dec, storage, from_dir, merge);
    for (std::size_t k = 0; k < groups.size(); ++k) {
      const auto& g = groups[k];
      std::size_t expect = 0;
      for (int o : g)
        expect += chunks[static_cast<std::size_t>(o)].bytes;
      const int first_go = ghost_ordinal(
          dec.regions()[static_cast<std::size_t>(g.front())].sigma);
      const int last_go = ghost_ordinal(
          dec.regions()[static_cast<std::size_t>(g.back())].sigma);
      const auto& first = chunks[static_cast<std::size_t>(first_go)];
      const auto& last = chunks[static_cast<std::size_t>(last_go)];
      const std::size_t span = last.offset + last.bytes - first.offset;
      BX_CHECK(span == expect,
               "ghost chunk group is not contiguous where the sender merged");
      plan_.recvs.push_back(PlanWire{neighbor_ranks[v],
                                     from_v * kRunTagStride +
                                         static_cast<int>(k),
                                     first.offset, span});
      std::vector<int> ghosts;
      ghosts.reserve(g.size());
      for (int o : g) {
        const int go =
            ghost_ordinal(dec.regions()[static_cast<std::size_t>(o)].sigma);
        BX_CHECK(chunks[static_cast<std::size_t>(go)].bytes ==
                     chunks[static_cast<std::size_t>(o)].bytes,
                 "ghost chunk size disagrees with the sender's surface chunk");
        ghosts.push_back(go);
      }
      recv_regions_.push_back(std::move(ghosts));
    }
  }
  plan_.cost.messages +=
      static_cast<std::int64_t>(plan_.sends.size() + plan_.recvs.size());
}

template <int D>
void Exchanger<D>::make_persistent(mpi::Comm& comm) {
  BX_CHECK(!pset_.bound(), "exchanger already bound to persistent requests");
  BX_CHECK(pending_.empty(), "cannot bind while an exchange is in flight");
  for (const PlanWire& w : plan_.recvs)
    pset_.add_recv(
        comm.recv_init(storage_->data() + w.offset, w.bytes, w.rank, w.tag));
  for (const PlanWire& w : plan_.sends)
    pset_.add_send(
        comm.send_init(storage_->data() + w.offset, w.bytes, w.rank, w.tag));
  pset_.mark_bound();
}

template <int D>
void Exchanger<D>::make_partitioned(mpi::Comm& comm) {
  BX_CHECK(!part_.bound(), "exchanger already bound to partitioned requests");
  BX_CHECK(!pset_.bound(),
           "persistent and partitioned bindings are mutually exclusive");
  BX_CHECK(pending_.empty(), "cannot bind while an exchange is in flight");
  const auto& chunks = storage_->chunks();
  auto sizes_of = [&](const std::vector<int>& regions) {
    std::vector<std::size_t> sizes;
    sizes.reserve(regions.size());
    for (int o : regions)
      sizes.push_back(chunks[static_cast<std::size_t>(o)].bytes);
    return sizes;
  };
  for (std::size_t i = 0; i < plan_.recvs.size(); ++i) {
    const PlanWire& w = plan_.recvs[i];
    auto sizes = sizes_of(recv_regions_[i]);
    part_.add_recv(comm.precv_init(storage_->data() + w.offset, w.bytes,
                                   w.rank, w.tag, sizes),
                   recv_regions_[i], sizes);
  }
  for (std::size_t i = 0; i < plan_.sends.size(); ++i) {
    const PlanWire& w = plan_.sends[i];
    auto sizes = sizes_of(send_regions_[i]);
    part_.add_send(comm.psend_init(storage_->data() + w.offset, w.bytes,
                                   w.rank, w.tag, sizes),
                   send_regions_[i], sizes);
  }
  part_.mark_bound();
}

template <int D>
void Exchanger<D>::start(mpi::Comm& comm) {
  BX_CHECK(pending_.empty(), "previous exchange still in flight");
  if (pset_.bound()) {
    pset_.start_all();
    return;
  }
  pending_.reserve(plan_.sends.size() + plan_.recvs.size());
  for (const PlanWire& w : plan_.recvs)
    pending_.push_back(
        comm.irecv(storage_->data() + w.offset, w.bytes, w.rank, w.tag));
  for (const PlanWire& w : plan_.sends)
    pending_.push_back(
        comm.isend(storage_->data() + w.offset, w.bytes, w.rank, w.tag));
}

template <int D>
void Exchanger<D>::finish(mpi::Comm& comm) {
  if (pset_.bound()) {
    pset_.wait_all();
    return;
  }
  comm.waitall(pending_);
}

template <int D>
std::int64_t Exchanger<D>::send_byte_count() const {
  std::int64_t n = 0;
  for (const PlanWire& w : plan_.sends) n += static_cast<std::int64_t>(w.bytes);
  return n;
}

template class Exchanger<1>;
template class Exchanger<2>;
template class Exchanger<3>;
template class Exchanger<4>;

template <int D>
NetworkFloorExchanger<D>::NetworkFloorExchanger(
    const BrickDecomp<D>& dec, const BrickStorage& storage,
    const std::vector<int>& neighbor_ranks) {
  const auto& nbrs = dec.neighbor_order();
  BX_CHECK(neighbor_ranks.size() == nbrs.size(),
           "neighbor rank table does not match the decomposition");
  // Per neighbor: one message of the exact payload volume, staged in a
  // contiguous scratch area (so neither side pays packing or extra
  // messages: the floor the paper measures as "Network").
  std::size_t total = 0;
  std::vector<std::size_t> send_bytes(nbrs.size(), 0);
  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    plan_.cost.regions += dec.surface_region_count();
    for (const auto& g : plan_send_groups(dec, storage, nbrs[v], true))
      for (int o : g) {
        const auto& c = storage.chunks()[static_cast<std::size_t>(o)];
        send_bytes[v] += c.bytes;
      }
    total += 2 * send_bytes[v];  // send half + recv half
  }
  scratch_.resize(total ? total : 1);
  std::size_t at = 0;
  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    if (send_bytes[v] == 0) continue;
    plan_.sends.push_back(
        PlanWire{neighbor_ranks[v], static_cast<int>(v), at, send_bytes[v]});
    at += send_bytes[v];
    // The matching receive has the same volume by symmetry of the
    // decomposition (neighbor at ν sends toward flip(ν), same geometry).
    const int from_tag = dec.neighbor_ordinal(nbrs[v].flipped());
    plan_.recvs.push_back(
        PlanWire{neighbor_ranks[v], from_tag, at, send_bytes[v]});
    at += send_bytes[v];
  }
  plan_.cost.messages +=
      static_cast<std::int64_t>(plan_.sends.size() + plan_.recvs.size());
}

template <int D>
void NetworkFloorExchanger<D>::make_persistent(mpi::Comm& comm) {
  BX_CHECK(!pset_.bound(), "exchanger already bound to persistent requests");
  BX_CHECK(pending_.empty(), "cannot bind while an exchange is in flight");
  for (const PlanWire& w : plan_.recvs)
    pset_.add_recv(
        comm.recv_init(scratch_.data() + w.offset, w.bytes, w.rank, w.tag));
  for (const PlanWire& w : plan_.sends)
    pset_.add_send(
        comm.send_init(scratch_.data() + w.offset, w.bytes, w.rank, w.tag));
  pset_.mark_bound();
}

template <int D>
void NetworkFloorExchanger<D>::start(mpi::Comm& comm) {
  BX_CHECK(pending_.empty(), "previous exchange still in flight");
  if (pset_.bound()) {
    pset_.start_all();
    return;
  }
  for (const PlanWire& w : plan_.recvs)
    pending_.push_back(
        comm.irecv(scratch_.data() + w.offset, w.bytes, w.rank, w.tag));
  for (const PlanWire& w : plan_.sends)
    pending_.push_back(
        comm.isend(scratch_.data() + w.offset, w.bytes, w.rank, w.tag));
}

template <int D>
void NetworkFloorExchanger<D>::finish(mpi::Comm& comm) {
  if (pset_.bound()) {
    pset_.wait_all();
    return;
  }
  comm.waitall(pending_);
}

template <int D>
std::int64_t NetworkFloorExchanger<D>::send_byte_count() const {
  std::int64_t n = 0;
  for (const PlanWire& w : plan_.sends) n += static_cast<std::int64_t>(w.bytes);
  return n;
}

template class NetworkFloorExchanger<1>;
template class NetworkFloorExchanger<2>;
template class NetworkFloorExchanger<3>;
template class NetworkFloorExchanger<4>;

}  // namespace brickx
