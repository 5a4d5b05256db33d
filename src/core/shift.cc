#include "core/shift.h"

#include <map>

#include "common/error.h"
#include "simmpi/cart.h"

namespace brickx {

namespace {

/// Per-axis band class of a region chunk: the five bands L,l,m,h,H encoded
/// as 0..4 (DESIGN.md §5.1).
enum Band : int { kL = 0, kl = 1, km = 2, kh = 3, kH = 4 };

template <int D>
std::array<int, D> chunk_bands(const typename BrickDecomp<D>::Region& r) {
  std::array<int, D> b{};
  using Kind = typename BrickDecomp<D>::Region::Kind;
  for (int a = 0; a < D; ++a) {
    const int sd = r.sigma.dir_of(a + 1);
    int band = sd < 0 ? kl : (sd > 0 ? kh : km);
    if (r.kind == Kind::Ghost) {
      const int nd = r.nu.dir_of(a + 1);
      if (nd < 0) band = kL;
      if (nd > 0) band = kH;
    }
    b[static_cast<std::size_t>(a)] = band;
  }
  return b;
}

/// Key for band-vector lookup.
template <int D>
std::int64_t band_key(const std::array<int, D>& b) {
  std::int64_t k = 0;
  for (int a = 0; a < D; ++a) k = k * 5 + b[static_cast<std::size_t>(a)];
  return k;
}

}  // namespace

template <int D>
std::vector<std::array<int, 2>> shift_neighbors(const mpi::Cart<D>& cart) {
  std::vector<std::array<int, 2>> out;
  for (int a = 1; a <= D; ++a)
    out.push_back({cart.neighbor(BitSet{-a}), cart.neighbor(BitSet{a})});
  return out;
}

template std::vector<std::array<int, 2>> shift_neighbors<2>(
    const mpi::Cart<2>&);
template std::vector<std::array<int, 2>> shift_neighbors<3>(
    const mpi::Cart<3>&);

template <int D>
ShiftExchanger<D>::ShiftExchanger(
    const BrickDecomp<D>& dec, BrickStorage& storage,
    const std::vector<std::array<int, 2>>& axis_neighbor_ranks) {
  BX_CHECK(axis_neighbor_ranks.size() == static_cast<std::size_t>(D),
           "need one neighbor pair per axis");
  BX_CHECK(storage.chunks().size() == dec.regions().size(),
           "storage was not allocated from this decomposition");
  const auto& chunks = storage.chunks();

  // Band vector -> chunk ordinal, for mapping sender chunks onto the
  // receiver's ghost chunks (identical decompositions on all ranks).
  std::map<std::int64_t, int> by_bands;
  std::vector<std::array<int, D>> bands(dec.regions().size());
  for (std::size_t o = 0; o < dec.regions().size(); ++o) {
    bands[o] = chunk_bands<D>(dec.regions()[o]);
    const auto [it, inserted] = by_bands.emplace(band_key<D>(bands[o]),
                                                 static_cast<int>(o));
    BX_CHECK(inserted, "duplicate band vector in the region table");
  }

  // Phase a, direction d: send every chunk with band(a) == h (d=+) or l
  // (d=-), axes > a in {l,m,h} (interior extent) and axes < a any band
  // (forwarding the ghosts filled by earlier phases). It lands in the
  // receiver's chunk with band(a) flipped to L (resp. H), other axes
  // unchanged.
  for (int a = 0; a < D; ++a) {
    ExchangePlan& phase = phases_[static_cast<std::size_t>(a)];
    for (int d = 0; d < 2; ++d) {
      const int send_band = d == 0 ? kl : kh;
      const int recv_band = d == 0 ? kH : kL;  // at the receiving side
      // Our outgoing chunk list (storage order) and, in the same traversal
      // order, the receiver-side ordinals it lands in.
      struct Piece {
        int send_o, recv_o;
      };
      std::vector<Piece> pieces;
      for (std::size_t o = 0; o < dec.regions().size(); ++o) {
        const auto& b = bands[o];
        if (b[static_cast<std::size_t>(a)] != send_band) continue;
        bool eligible = true;
        for (int c = a + 1; c < D; ++c)
          if (b[static_cast<std::size_t>(c)] == kL ||
              b[static_cast<std::size_t>(c)] == kH)
            eligible = false;
        if (!eligible) continue;
        if (chunks[o].bytes == 0) continue;
        auto rb = b;
        rb[static_cast<std::size_t>(a)] = recv_band;
        const auto it = by_bands.find(band_key<D>(rb));
        BX_CHECK(it != by_bands.end(), "missing mirror ghost chunk");
        pieces.push_back(Piece{static_cast<int>(o), it->second});
      }
      // Merge into runs contiguous on BOTH sides so each message is a
      // plain range at the sender and the receiver.
      const int to_rank = axis_neighbor_ranks[static_cast<std::size_t>(a)]
                                             [static_cast<std::size_t>(d)];
      const int from_rank =
          axis_neighbor_ranks[static_cast<std::size_t>(a)]
                             [static_cast<std::size_t>(1 - d)];
      int run = 0;
      std::size_t i = 0;
      while (i < pieces.size()) {
        std::size_t j = i + 1;
        auto send_end = [&](std::size_t p) {
          const auto& c = chunks[static_cast<std::size_t>(pieces[p].send_o)];
          return c.offset + c.bytes;
        };
        auto recv_end = [&](std::size_t p) {
          const auto& c = chunks[static_cast<std::size_t>(pieces[p].recv_o)];
          return c.offset + c.bytes;
        };
        while (j < pieces.size() &&
               chunks[static_cast<std::size_t>(pieces[j].send_o)].offset ==
                   send_end(j - 1) &&
               chunks[static_cast<std::size_t>(pieces[j].recv_o)].offset ==
                   recv_end(j - 1))
          ++j;
        const auto& sfirst =
            chunks[static_cast<std::size_t>(pieces[i].send_o)];
        const auto& rfirst =
            chunks[static_cast<std::size_t>(pieces[i].recv_o)];
        const std::size_t bytes = send_end(j - 1) - sfirst.offset;
        BX_CHECK(bytes == recv_end(j - 1) - rfirst.offset,
                 "shift run sizes disagree between peers");
        // Tag space: phase, direction, run. The receiver matches the
        // sender's (same-phase, same-direction) tags.
        const int tag = (a * 2 + d) * 64 + run;
        phase.add_send(PlanWire{.rank = to_rank,
                                .tag = tag,
                                .buf = storage.data() + sfirst.offset,
                                .bytes = bytes});
        phase.add_recv(PlanWire{.rank = from_rank,
                                .tag = tag,
                                .buf = storage.data() + rfirst.offset,
                                .bytes = bytes});
        ++run;
        i = j;
      }
      BX_CHECK(run <= 64, "tag space too small for shift runs");
      phase.add_cost(
          {.regions = static_cast<std::int64_t>(dec.regions().size())});
    }
  }
}

template <int D>
PlanCost ShiftExchanger<D>::setup_cost() const {
  PlanCost c;
  for (const ExchangePlan& p : phases_) c += p.setup_cost();
  return c;
}

template <int D>
std::int64_t ShiftExchanger<D>::send_message_count() const {
  std::int64_t n = 0;
  for (const ExchangePlan& p : phases_) n += p.send_message_count();
  return n;
}

template <int D>
std::int64_t ShiftExchanger<D>::send_byte_count() const {
  std::int64_t n = 0;
  for (const ExchangePlan& p : phases_) n += p.send_byte_count();
  return n;
}

template class ShiftExchanger<2>;
template class ShiftExchanger<3>;

}  // namespace brickx
