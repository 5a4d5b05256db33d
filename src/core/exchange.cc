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
    : data_(storage.data()) {
  const auto& nbrs = dec.neighbor_order();
  BX_CHECK(neighbor_ranks.size() == nbrs.size(),
           "neighbor rank table does not match the decomposition");
  BX_CHECK(storage.chunks().size() == dec.regions().size(),
           "storage was not allocated from this decomposition");
  const bool merge = mode == Mode::Layout;
  const auto& chunks = storage.chunks();
  auto sizes_of = [&](const std::vector<int>& regions) {
    std::vector<std::size_t> sizes;
    sizes.reserve(regions.size());
    for (int o : regions)
      sizes.push_back(chunks[static_cast<std::size_t>(o)].bytes);
    return sizes;
  };

  // Sends: for each direction, runs of surface chunks. Each scan over the
  // region table is one-time plan work, tallied into the setup cost.
  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    add_cost({.regions = dec.surface_region_count()});
    const auto groups = plan_send_groups(dec, storage, nbrs[v], merge);
    BX_CHECK(static_cast<int>(groups.size()) <= kRunTagStride,
             "tag space too small for run count");
    for (std::size_t k = 0; k < groups.size(); ++k) {
      const auto& g = groups[k];
      const auto& first = chunks[static_cast<std::size_t>(g.front())];
      const auto& last = chunks[static_cast<std::size_t>(g.back())];
      add_send(PlanWire{
          .rank = neighbor_ranks[v],
          .tag = static_cast<int>(v) * kRunTagStride + static_cast<int>(k),
          .buf = storage.data() + first.offset,
          .bytes = last.offset + last.bytes - first.offset,
          .regions = g,
          .part_bytes = sizes_of(g)});
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
    add_cost({.regions = dec.surface_region_count()});
    const auto groups = plan_send_groups(dec, storage, from_dir, merge);
    for (std::size_t k = 0; k < groups.size(); ++k) {
      const auto& g = groups[k];
      std::vector<int> ghosts;
      ghosts.reserve(g.size());
      std::size_t expect = 0;
      for (int o : g) {
        const int go =
            ghost_ordinal(dec.regions()[static_cast<std::size_t>(o)].sigma);
        BX_CHECK(chunks[static_cast<std::size_t>(go)].bytes ==
                     chunks[static_cast<std::size_t>(o)].bytes,
                 "ghost chunk size disagrees with the sender's surface chunk");
        ghosts.push_back(go);
        expect += chunks[static_cast<std::size_t>(o)].bytes;
      }
      const auto& first = chunks[static_cast<std::size_t>(ghosts.front())];
      const auto& last = chunks[static_cast<std::size_t>(ghosts.back())];
      const std::size_t span = last.offset + last.bytes - first.offset;
      BX_CHECK(span == expect,
               "ghost chunk group is not contiguous where the sender merged");
      std::vector<std::size_t> sizes = sizes_of(ghosts);
      add_recv(PlanWire{.rank = neighbor_ranks[v],
                        .tag = from_v * kRunTagStride + static_cast<int>(k),
                        .buf = storage.data() + first.offset,
                        .bytes = span,
                        .regions = std::move(ghosts),
                        .part_bytes = std::move(sizes)});
    }
  }
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
    add_cost({.regions = dec.surface_region_count()});
    for (const auto& g : plan_send_groups(dec, storage, nbrs[v], true))
      for (int o : g)
        send_bytes[v] += storage.chunks()[static_cast<std::size_t>(o)].bytes;
    total += 2 * send_bytes[v];  // send half + recv half
  }
  scratch_.resize(total ? total : 1);
  std::byte* at = scratch_.data();
  for (std::size_t v = 0; v < nbrs.size(); ++v) {
    if (send_bytes[v] == 0) continue;
    add_send(PlanWire{.rank = neighbor_ranks[v],
                      .tag = static_cast<int>(v),
                      .buf = at,
                      .bytes = send_bytes[v]});
    at += send_bytes[v];
    // The matching receive has the same volume by symmetry of the
    // decomposition (neighbor at ν sends toward flip(ν), same geometry).
    add_recv(PlanWire{.rank = neighbor_ranks[v],
                      .tag = dec.neighbor_ordinal(nbrs[v].flipped()),
                      .buf = at,
                      .bytes = send_bytes[v]});
    at += send_bytes[v];
  }
}

template class NetworkFloorExchanger<1>;
template class NetworkFloorExchanger<2>;
template class NetworkFloorExchanger<3>;
template class NetworkFloorExchanger<4>;

}  // namespace brickx
