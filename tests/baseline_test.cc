#include "baseline/array_exchange.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/cell_array.h"
#include "core/field_set.h"
#include "simmpi/cart.h"

namespace brickx::baseline {
namespace {

using mpi::Cart;
using mpi::Comm;
using mpi::NetModel;
using mpi::Runtime;

TEST(Boxes, SendAndRecvBoxesAreConsistent) {
  const Vec3 N{16, 16, 16};
  // Send boxes partition the surface instances; recv boxes the ghost frame.
  std::int64_t send_total = 0, recv_total = 0;
  for (const auto& nu : Cart<3>::all_directions()) {
    const Box<3> s = send_box(nu, N, 4);
    const Box<3> r = recv_box(nu, N, 4);
    EXPECT_EQ(s.volume(), r.volume());
    send_total += s.volume();
    recv_total += r.volume();
    // Send boxes live inside the domain; recv boxes outside.
    EXPECT_TRUE((Box<3>{{0, 0, 0}, N}).contains(s.lo));
    EXPECT_FALSE((Box<3>{{0, 0, 0}, N}).contains(r.lo) &&
                 (Box<3>{{0, 0, 0}, N}).contains(r.hi - Vec3{1, 1, 1}));
  }
  // Ghost frame volume: (N+2g)^3 - N^3.
  EXPECT_EQ(recv_total, 24 * 24 * 24 - 16 * 16 * 16);
  EXPECT_EQ(send_total, recv_total);
}

double gv(Vec3 g, const Vec3& ext) {
  for (int a = 0; a < 3; ++a) g[a] = ((g[a] % ext[a]) + ext[a]) % ext[a];
  return static_cast<double>((g[2] * ext[1] + g[1]) * ext[0] + g[0]);
}

template <typename MakeExchange>
void end_to_end(MakeExchange&& make) {
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    const Vec3 N{16, 16, 16};
    const std::int64_t g = 4;
    const Vec3 ext{32, 32, 32};
    const Vec3 off = cart.coords() * N;
    CellArray3 field(Box<3>{{-g, -g, -g}, {20, 20, 20}});
    for_each(Box<3>{{0, 0, 0}, N},
             [&](const Vec3& p) { field.at(p) = gv(p + off, ext); });
    const auto dirs = Cart<3>::all_directions();
    std::vector<int> ranks;
    for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
    make(comm, N, g, dirs, ranks, field);
    std::int64_t bad = 0;
    for_each(field.box(), [&](const Vec3& p) {
      if (field.at(p) != gv(p + off, ext)) ++bad;
    });
    EXPECT_EQ(bad, 0) << "rank " << comm.rank();
  });
}

TEST(PackExchanger, GhostsExactAfterExchange) {
  end_to_end([](Comm& comm, const Vec3& N, std::int64_t g,
                const std::vector<BitSet>& dirs, const std::vector<int>& ranks,
                CellArray3& field) {
    PackExchanger ex(N, g, dirs, ranks);
    EXPECT_EQ(ex.send_message_count(), 26);
    ex.exchange(comm, field);
  });
}

TEST(PackExchanger, PhaseSplitWorks) {
  end_to_end([](Comm& comm, const Vec3& N, std::int64_t g,
                const std::vector<BitSet>& dirs, const std::vector<int>& ranks,
                CellArray3& field) {
    PackExchanger ex(N, g, dirs, ranks);
    const std::size_t packed = ex.pack(field);
    EXPECT_EQ(packed, static_cast<std::size_t>(ex.send_byte_count()));
    ex.start(comm);
    ex.finish(comm);
    const std::size_t unpacked = ex.unpack(field);
    EXPECT_EQ(unpacked, packed);
    EXPECT_EQ(ex.onnode_byte_count(),
              static_cast<std::int64_t>(packed + unpacked));
  });
}

TEST(MpiTypesExchanger, GhostsExactAfterExchange) {
  end_to_end([](Comm& comm, const Vec3& N, std::int64_t g,
                const std::vector<BitSet>& dirs, const std::vector<int>& ranks,
                CellArray3& field) {
    MpiTypesExchanger ex(N, g, dirs, ranks, field);
    EXPECT_EQ(ex.send_message_count(), 26);
    EXPECT_GT(ex.datatype_block_count(), 26);
    ex.exchange(comm, field);
  });
}

TEST(MpiTypesExchanger, ByteVolumeMatchesPack) {
  const Vec3 N{16, 16, 16};
  CellArray3 shape(Box<3>{{-4, -4, -4}, {20, 20, 20}});
  const auto dirs = Cart<3>::all_directions();
  std::vector<int> ranks(dirs.size(), 0);
  PackExchanger p(N, 4, dirs, ranks);
  MpiTypesExchanger t(N, 4, dirs, ranks, shape);
  EXPECT_EQ(p.send_byte_count(), t.send_byte_count());
}

TEST(MpiTypesExchanger, StridedFacesDominateBlockCount) {
  // The i-contiguous face (ν = {-1}) is maximally strided: g doubles per
  // row, N*N rows. This block explosion is exactly why MPI_Types is slow.
  const Vec3 N{16, 16, 16};
  CellArray3 shape(Box<3>{{-4, -4, -4}, {20, 20, 20}});
  auto dirs = std::vector<BitSet>{BitSet{-1}, BitSet{1}};
  std::vector<int> ranks{0, 0};
  MpiTypesExchanger ex(N, 4, dirs, ranks, shape);
  // Each direction sends a 4x16x16 subarray: 16*16 blocks of 4 doubles per
  // side (send + recv types), for both directions.
  EXPECT_EQ(ex.datatype_block_count(), 2 * 2 * 16 * 16);
}

TEST(PackExchanger, RepeatedExchangesStable) {
  Runtime rt(8, NetModel{});
  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, {2, 2, 2});
    const Vec3 N{8, 8, 8};
    const auto dirs = Cart<3>::all_directions();
    std::vector<int> ranks;
    for (const auto& d : dirs) ranks.push_back(cart.neighbor(d));
    CellArray3 f(Box<3>{{-2, -2, -2}, {10, 10, 10}});
    for_each(Box<3>{{0, 0, 0}, N}, [&](const Vec3& p) {
      f.at(p) = static_cast<double>(comm.rank());
    });
    PackExchanger ex(N, 2, dirs, ranks);
    for (int i = 0; i < 4; ++i) ex.exchange(comm, f);
    // Ghost corner must hold the diagonal neighbor's rank.
    const int diag = cart.neighbor(BitSet{-1, -2, -3});
    EXPECT_EQ(f.at({-1, -1, -1}), static_cast<double>(diag));
  });
}

// Drives one PackExchanger on rank 0 whose every neighbor is rank 1; rank 1
// is a plain message peer. It receives the raw send buffers, checks them
// against a per-cell reference gather of each send box (field 0's cells,
// then field 1's, ...), and answers with distinct receive buffers. Rank 0
// then checks the unpacked frame against a per-cell reference scatter of
// those buffers into an untouched copy. `at(field, f, p)` is the per-cell
// accessor the references use.
template <typename Field, typename At>
void check_pack_unpack_against_reference(const Vec3& N, std::int64_t g,
                                         int nfields, Field field, At&& at) {
  const auto dirs = Cart<3>::all_directions();
  const auto ordinal = [&](const BitSet& d) {
    for (std::size_t i = 0; i < dirs.size(); ++i)
      if (dirs[i] == d) return static_cast<int>(i);
    return -1;
  };
  double seedv = 0.5;
  for (auto& v : field.raw()) v = (seedv += 1.0);
  Field orig = field;  // rank 1's reference reads this copy
  // What rank 1 answers for direction v (rank 0's recv box of v).
  const auto reply = [&](std::size_t v) {
    std::vector<double> buf(static_cast<std::size_t>(
        recv_box(dirs[v], N, g).volume() * nfields));
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = -1.0 - static_cast<double>(v * 100000 + i);
    return buf;
  };

  Runtime rt(2, NetModel{});
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      PackExchanger ex(N, g, dirs, std::vector<int>(dirs.size(), 1), nfields);
      Field want = field;
      for (std::size_t v = 0; v < dirs.size(); ++v) {
        const std::vector<double> buf = reply(v);
        std::size_t k = 0;
        for (int f = 0; f < nfields; ++f)
          for_each(recv_box(dirs[v], N, g),
                   [&](const Vec3& p) { at(want, f, p) = buf[k++]; });
      }
      const auto bytes = static_cast<std::size_t>(ex.send_byte_count());
      EXPECT_EQ(ex.pack(field), bytes);
      ex.start(comm);
      ex.finish(comm);
      EXPECT_EQ(ex.unpack(field), bytes);
      EXPECT_EQ(std::memcmp(field.raw().data(), want.raw().data(),
                            field.raw().size() * sizeof(double)),
                0);
      return;
    }
    std::vector<std::vector<double>> got(dirs.size()), replies(dirs.size());
    std::vector<mpi::Request> reqs;
    for (std::size_t v = 0; v < dirs.size(); ++v) {
      got[v].resize(static_cast<std::size_t>(
          send_box(dirs[v], N, g).volume() * nfields));
      reqs.push_back(comm.irecv(got[v].data(), got[v].size() * sizeof(double),
                                0, static_cast<int>(v)));
    }
    for (std::size_t v = 0; v < dirs.size(); ++v) {
      // Rank 0 receives direction v under the tag of v's flip.
      replies[v] = reply(v);
      reqs.push_back(comm.isend(replies[v].data(),
                                replies[v].size() * sizeof(double), 0,
                                ordinal(dirs[v].flipped())));
    }
    comm.waitall(reqs);
    for (std::size_t v = 0; v < dirs.size(); ++v) {
      std::vector<double> ref;
      for (int f = 0; f < nfields; ++f)
        for_each(send_box(dirs[v], N, g),
                 [&](const Vec3& p) { ref.push_back(at(orig, f, p)); });
      ASSERT_EQ(got[v].size(), ref.size());
      EXPECT_EQ(std::memcmp(got[v].data(), ref.data(),
                            ref.size() * sizeof(double)),
                0)
          << "direction " << v;
    }
  });
}

TEST(PackExchanger, RowCopiesMatchPerCellReferenceSingleField) {
  const Vec3 N{12, 10, 6};
  const std::int64_t g = 3;
  check_pack_unpack_against_reference(
      N, g, 1, CellArray3(Box<3>{Vec3::fill(-g), N + Vec3::fill(g)}),
      [](auto& a, int, const Vec3& p) -> auto& { return a.at(p); });
}

TEST(PackExchanger, RowCopiesMatchPerCellReferenceMultiField) {
  const Vec3 N{12, 10, 6};
  const std::int64_t g = 3;
  check_pack_unpack_against_reference(
      N, g, 3, ArrayFields(Box<3>{Vec3::fill(-g), N + Vec3::fill(g)}, 3),
      [](auto& a, int f, const Vec3& p) -> auto& { return a.at(f, p); });
}

}  // namespace
}  // namespace brickx::baseline
