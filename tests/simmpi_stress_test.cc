// Stress and edge-case coverage for the simmpi substrate: heavy message
// loads, request misuse, deep datatype composition, and virtual-clock
// properties under contention.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"

namespace brickx::mpi {
namespace {

TEST(Stress, ThousandsOfMessagesAllToAll) {
  const int n = 8;
  constexpr int kPerPair = 64;
  Runtime rt(n, NetModel{});
  rt.run([&](Comm& c) {
    std::vector<std::vector<double>> inbox(
        static_cast<std::size_t>(c.size()),
        std::vector<double>(kPerPair, -1.0));
    std::vector<std::vector<double>> outbox(
        static_cast<std::size_t>(c.size()));
    std::vector<Request> reqs;
    for (int peer = 0; peer < c.size(); ++peer) {
      auto& out = outbox[static_cast<std::size_t>(peer)];
      out.resize(kPerPair);
      for (int i = 0; i < kPerPair; ++i)
        out[static_cast<std::size_t>(i)] = c.rank() * 10000 + peer * 100 + i;
      for (int i = 0; i < kPerPair; ++i) {
        reqs.push_back(c.irecv(&inbox[static_cast<std::size_t>(peer)]
                                      [static_cast<std::size_t>(i)],
                               sizeof(double), peer, i));
        reqs.push_back(c.isend(&out[static_cast<std::size_t>(i)],
                               sizeof(double), peer, i));
      }
    }
    c.waitall(reqs);
    for (int peer = 0; peer < c.size(); ++peer)
      for (int i = 0; i < kPerPair; ++i)
        ASSERT_EQ(inbox[static_cast<std::size_t>(peer)]
                       [static_cast<std::size_t>(i)],
                  peer * 10000 + c.rank() * 100 + i);
  });
}

TEST(Stress, LargeMessages) {
  Runtime rt(2, NetModel{});
  rt.run([&](Comm& c) {
    const std::size_t n = 8 << 20;  // 64 MiB of doubles
    std::vector<double> buf(n);
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.0);
      c.send(buf.data(), n * sizeof(double), 1, 0);
    } else {
      c.recv(buf.data(), n * sizeof(double), 0, 0);
      EXPECT_EQ(buf[n - 1], static_cast<double>(n - 1));
    }
  });
}

TEST(Stress, RandomizedTagMatchingOrder) {
  Runtime rt(2, NetModel{});
  rt.run([&](Comm& c) {
    constexpr int kMsgs = 200;
    if (c.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        double v = i * 1.5;
        c.send(&v, sizeof v, 1, i);
      }
    } else {
      // Receive in a scrambled tag order; matching must be by tag.
      std::vector<int> order(kMsgs);
      std::iota(order.begin(), order.end(), 0);
      Rng rng(5);
      for (std::size_t j = order.size(); j > 1; --j)
        std::swap(order[j - 1], order[rng.below(j)]);
      for (int tag : order) {
        double v = -1;
        c.recv(&v, sizeof v, 0, tag);
        ASSERT_EQ(v, tag * 1.5);
      }
    }
  });
}

TEST(Misuse, DoubleWaitThrows) {
  Runtime rt(1, NetModel{});
  EXPECT_THROW(rt.run([](Comm& c) {
    double x = 0, y = 0;
    Request s = c.isend(&x, sizeof x, 0, 0);
    Request r = c.irecv(&y, sizeof y, 0, 0);
    c.wait(r);
    c.wait(s);
    c.wait(s);  // already completed (and reset) — must throw
  }),
               brickx::Error);
}

TEST(Misuse, WaitOnEmptyRequestThrows) {
  Runtime rt(1, NetModel{});
  EXPECT_THROW(rt.run([](Comm& c) {
    Request r;
    c.wait(r);
  }),
               brickx::Error);
}

TEST(Datatype, DeepConcatComposition) {
  // Build a struct-of-subarrays covering three disjoint faces and check
  // gather/scatter coherence.
  const Vec3 sizes{12, 12, 12};
  auto faces = Datatype::concat({
      {0, Datatype::subarray<3>(sizes, {2, 12, 12}, {0, 0, 0}, 8)},
      {0, Datatype::subarray<3>(sizes, {2, 12, 12}, {10, 0, 0}, 8)},
      {0, Datatype::subarray<3>(sizes, {8, 2, 12}, {2, 0, 0}, 8)},
  });
  std::vector<double> grid(static_cast<std::size_t>(sizes.prod()));
  std::iota(grid.begin(), grid.end(), 0.0);
  std::vector<std::byte> packed(faces.size());
  faces.flat().gather(reinterpret_cast<const std::byte*>(grid.data()),
                      packed.data());
  std::vector<double> back(grid.size(), -1.0);
  faces.flat().scatter(packed.data(),
                       reinterpret_cast<std::byte*>(back.data()));
  std::int64_t touched = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (back[i] >= 0) {
      EXPECT_EQ(back[i], grid[i]);
      ++touched;
    }
  }
  EXPECT_EQ(touched, 2 * 144 + 2 * 144 + 8 * 2 * 12);
}

TEST(VClockProps, WaitNeverMovesTimeBackward) {
  Runtime rt(4, NetModel{});
  rt.run([&](Comm& c) {
    Rng rng(static_cast<std::uint64_t>(c.rank()) + 1);
    double prev = 0;
    for (int step = 0; step < 50; ++step) {
      const int peer = (c.rank() + 1 + step) % c.size();
      const int from =
          (c.rank() - 1 - step % c.size() + 2 * c.size()) % c.size();
      double v = 0;
      Request r = c.irecv(&v, sizeof v, from, step);
      double mine = 1.0;
      Request s = c.isend(&mine, sizeof mine, peer, step);
      c.compute(rng.uniform() * 1e-6);
      c.wait(r);
      c.wait(s);
      ASSERT_GE(c.clock().now(), prev);
      prev = c.clock().now();
    }
  });
}

TEST(VClockProps, ArrivalRespectsSenderSerialization) {
  // N back-to-back 1 MB messages from one sender cannot arrive faster than
  // N * (bytes / bw) no matter how the receiver waits.
  NetModel m;
  m.send_overhead = 0;
  m.recv_overhead = 0;
  m.inter_node = {0.0, 1e9};
  Runtime rt(2, m);
  rt.run([&](Comm& c) {
    constexpr int kN = 10;
    std::vector<char> buf(1 << 20);
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send(buf.data(), buf.size(), 1, i);
    } else {
      std::vector<Request> reqs;
      for (int i = kN - 1; i >= 0; --i)
        reqs.push_back(c.irecv(buf.data(), buf.size(), 0, i));
      c.waitall(reqs);
      EXPECT_GE(c.clock().now(), kN * (1 << 20) / 1e9);
    }
  });
}

TEST(VClockProps, BarrierIsMonotoneAcrossRanks) {
  Runtime rt(16, NetModel{});
  rt.run([&](Comm& c) {
    c.compute(1e-6 * c.rank());
    const double before = c.clock().now();
    c.barrier();
    EXPECT_GE(c.clock().now(), before);
    EXPECT_GE(c.clock().now(), 15e-6);  // the slowest rank's time
    // All ranks observe the identical post-barrier time.
    auto ts = c.allgather(c.clock().now());
    for (double t : ts) EXPECT_EQ(t, ts[0]);
  });
}

TEST(Stress, ManySmallRuntimes) {
  // Runtime construction/teardown is cheap and leak-free across dozens of
  // uses (benches construct one per experiment).
  for (int i = 0; i < 50; ++i) {
    Runtime rt(3, NetModel{});
    rt.run([](Comm& c) { c.barrier(); });
  }
}

}  // namespace
}  // namespace brickx::mpi

// Message flows are recorded into an obs Collector, so they only exist in
// BRICKX_OBS builds; the null-sink build records nothing.
#if BRICKX_OBS

namespace brickx::mpi {
namespace {

TEST(Trace, RecordsEveryMessageDeterministically) {
  auto once = [] {
    Runtime rt(4, NetModel{});
    obs::Collector col(4);
    rt.set_collector(&col);
    rt.run([](Comm& c) {
      const int to = (c.rank() + 1) % c.size();
      const int from = (c.rank() + c.size() - 1) % c.size();
      double v = c.rank(), w = 0;
      for (int i = 0; i < 5; ++i) {
        Request r = c.irecv(&w, sizeof w, from, i);
        Request s = c.isend(&v, sizeof v, to, i);
        c.wait(r);
        c.wait(s);
      }
    });
    rt.set_collector(nullptr);
    // Each rank's log holds its own sends in posting order.
    std::vector<obs::FlowEvent> flows;
    for (int r = 0; r < 4; ++r) {
      const auto& fs = col.log(r).flows();
      flows.insert(flows.end(), fs.begin(), fs.end());
    }
    return flows;
  };
  const auto a = once();
  const auto b = once();
  ASSERT_EQ(a.size(), 4u * 5);
  for (const auto& e : a) {
    EXPECT_EQ(e.bytes, sizeof(double));
    EXPECT_GT(e.arrive, e.depart);
  }
  // Deterministic: identical programs record identical timelines.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].depart, b[i].depart);
    EXPECT_EQ(a[i].arrive, b[i].arrive);
  }
}

}  // namespace
}  // namespace brickx::mpi

#endif  // BRICKX_OBS
