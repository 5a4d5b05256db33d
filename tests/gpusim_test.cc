#include "gpusim/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace brickx::gpu {
namespace {

GpuModel small_pages() {
  GpuModel m;
  m.page_size = 4096;
  m.fault_per_page = 1e-6;
  m.link_bw = 50e9;
  return m;
}

TEST(Device, ClassifyRegisteredRanges) {
  Device dev(small_pages());
  std::vector<std::byte> a(8192), b(8192), c(64);
  dev.register_range(a.data(), a.size(), mpi::MemSpace::Device);
  dev.register_range(b.data(), b.size(), mpi::MemSpace::Unified);
  EXPECT_EQ(dev.classify(a.data()), mpi::MemSpace::Device);
  EXPECT_EQ(dev.classify(a.data() + 8191), mpi::MemSpace::Device);
  EXPECT_EQ(dev.classify(b.data() + 100), mpi::MemSpace::Unified);
  EXPECT_EQ(dev.classify(c.data()), mpi::MemSpace::Host);
  dev.unregister_range(a.data());
  EXPECT_EQ(dev.classify(a.data()), mpi::MemSpace::Host);
  dev.unregister_range(b.data());
}

TEST(Device, OverlapAndDoubleUnregisterRejected) {
  Device dev(small_pages());
  std::vector<std::byte> a(8192);
  dev.register_range(a.data(), a.size(), mpi::MemSpace::Device);
  EXPECT_THROW(
      dev.register_range(a.data() + 4096, 4096, mpi::MemSpace::Device),
      brickx::Error);
  dev.unregister_range(a.data());
  EXPECT_THROW(dev.unregister_range(a.data()), brickx::Error);
}

TEST(Device, UnifiedPagesMigrateOnHostTouch) {
  Device dev(small_pages());
  std::vector<std::byte> um(16 * 4096);
  dev.register_range(um.data(), um.size(), mpi::MemSpace::Unified);
  // Initially device-resident: touching 2 pages from the host costs two
  // faults plus transfer.
  const double t1 = dev.touch_host(um.data() + 4096, 2 * 4096);
  EXPECT_NEAR(t1, 2 * 1e-6 + 2 * 4096.0 / 50e9, 1e-12);
  EXPECT_EQ(dev.pages_migrated(), 2);
  // Second touch: already host-resident, free.
  EXPECT_EQ(dev.touch_host(um.data() + 4096, 2 * 4096), 0.0);
  // Kernel touch pulls them back.
  const double t2 = dev.touch_device(um.data(), um.size());
  EXPECT_NEAR(t2, 2 * 1e-6 + 2 * 4096.0 / 50e9, 1e-12);
  EXPECT_EQ(dev.pages_migrated(), 4);
  dev.unregister_range(um.data());
}

TEST(Device, PartialPageTouchMovesWholePage) {
  // The unaligned-region effect of Figure 15: touching one byte migrates
  // the whole page (and anything else living on it).
  Device dev(small_pages());
  std::vector<std::byte> um(4 * 4096);
  dev.register_range(um.data(), um.size(), mpi::MemSpace::Unified);
  (void)dev.touch_host(um.data() + 5000, 1);
  EXPECT_EQ(dev.pages_migrated(), 1);
  // The rest of page 1 is now host-side: device touch of a neighboring
  // byte on that page pays a migration even though the host only "needed"
  // one byte.
  EXPECT_GT(dev.touch_device(um.data() + 4096, 8), 0.0);
  dev.unregister_range(um.data());
}

TEST(Device, DeviceRangesNeverFault) {
  Device dev(small_pages());
  std::vector<std::byte> d(4 * 4096);
  dev.register_range(d.data(), d.size(), mpi::MemSpace::Device);
  EXPECT_EQ(dev.touch_host(d.data(), d.size()), 0.0);  // GPUDirect path
  EXPECT_EQ(dev.touch_device(d.data(), d.size()), 0.0);
  EXPECT_EQ(dev.pages_migrated(), 0);
  dev.unregister_range(d.data());
}

TEST(Device, AliasRedirectsResidency) {
  Device dev(small_pages());
  std::vector<std::byte> um(8 * 4096);
  std::vector<std::byte> view(2 * 4096);  // stands in for an mmap view
  dev.register_range(um.data(), um.size(), mpi::MemSpace::Unified);
  // view[0..2p) aliases canonical pages 3..5.
  dev.register_alias(view.data(), view.size(), um.data() + 3 * 4096);
  EXPECT_EQ(dev.classify(view.data()), mpi::MemSpace::Unified);
  // Touching through the alias migrates the canonical pages...
  EXPECT_GT(dev.touch_host(view.data(), view.size()), 0.0);
  // ...so touching the canonical range again is free,
  EXPECT_EQ(dev.touch_host(um.data() + 3 * 4096, 2 * 4096), 0.0);
  // and a kernel touching the canonical range pays to pull them back.
  EXPECT_GT(dev.touch_device(um.data() + 3 * 4096, 4096), 0.0);
  dev.unregister_range(view.data());
  dev.unregister_range(um.data());
}

TEST(Device, AliasValidation) {
  Device dev(small_pages());
  std::vector<std::byte> um(4 * 4096), dv(4096), v(4096);
  dev.register_range(um.data(), um.size(), mpi::MemSpace::Unified);
  dev.register_range(dv.data(), dv.size(), mpi::MemSpace::Device);
  // Alias beyond the canonical range.
  EXPECT_THROW(dev.register_alias(v.data(), 4096, um.data() + 3 * 4096 + 1024),
               brickx::Error);
  // Alias of a device (non-unified) range.
  EXPECT_THROW(dev.register_alias(v.data(), 4096, dv.data()), brickx::Error);
  // Alias of unregistered memory.
  EXPECT_THROW(dev.register_alias(v.data(), 4096, v.data()), brickx::Error);
  dev.unregister_range(um.data());
  dev.unregister_range(dv.data());
}

TEST(Device, MemcpyStagesAndCharges) {
  Device dev(small_pages());
  std::vector<std::byte> src(4096, std::byte{7}), dst(4096);
  const double t = dev.memcpy_h2d(dst.data(), src.data(), 4096);
  EXPECT_EQ(dst[4095], std::byte{7});
  EXPECT_GT(t, 4096.0 / 50e9);
}

TEST(Device, KernelRoofline) {
  GpuModel m;  // V100 defaults
  Device dev(m);
  // Memory-bound: 16 B/cell at 828.8 GB/s.
  const double t_mem = dev.kernel_seconds(1 << 20, 8.0, 16.0);
  EXPECT_NEAR(t_mem, (1 << 20) * 16.0 / 828.8e9 + m.launch_overhead, 1e-9);
  // Flop-bound when intensity is extreme.
  const double t_flop = dev.kernel_seconds(1 << 20, 1e6, 16.0);
  EXPECT_NEAR(t_flop, (1 << 20) * 1e6 / 7.8e12 + m.launch_overhead, 1e-6);
}

// One buffer carved into a unified range, a device range, unregistered
// host memory and an alias of unified pages 4..7, all addressed by block
// offsets from the buffer base.
struct CarvedBuffer {
  static constexpr std::size_t kPage = 4096;
  std::vector<std::byte> buf = std::vector<std::byte>(28 * kPage);
  Device dev{small_pages()};
  CarvedBuffer() {
    std::byte* b = buf.data();
    dev.register_range(b, 16 * kPage, mpi::MemSpace::Unified);
    dev.register_range(b + 16 * kPage, 4 * kPage, mpi::MemSpace::Device);
    dev.register_alias(b + 24 * kPage, 4 * kPage, b + 4 * kPage);
  }
  ~CarvedBuffer() {
    std::byte* b = buf.data();
    dev.unregister_range(b + 24 * kPage);
    dev.unregister_range(b + 16 * kPage);
    dev.unregister_range(b);
  }
};

TEST(Device, BatchedTouchEqualsPerBlockSequence) {
  constexpr std::size_t P = CarvedBuffer::kPage;
  const std::vector<Device::Block> blocks = {
      {100, 300},              // unaligned, inside page 0
      {P - 50, 100},           // straddles pages 0|1
      {2 * P, P},              // one whole page
      {3 * P + 7, 2 * P},      // unaligned, three pages
      {0, 0},                  // empty
      {16 * P + 8, 64},        // device range: never faults
      {20 * P + 5, 100},       // unregistered host memory: free
      {24 * P + 10, 5000},     // alias of unified pages 4..5
      {26 * P, P},             // alias, whole page 6
      {15 * P + 4000, 200},    // last unified page, unaligned tail
      {100, 300},              // repeat: already host-resident
  };
  CarvedBuffer one, batch;
  const double t0 = 3.7e-4;  // a rank clock that is already running

  double t_one = t0;
  for (const Device::Block& b : blocks)
    t_one += one.dev.touch_host(one.buf.data() + b.offset, b.length);
  mpi::VClock clock;
  clock.advance(t0);
  batch.dev.touch_host(batch.buf.data(), blocks, clock);
  EXPECT_EQ(clock.now(), t_one);
  EXPECT_GT(clock.now(), t0);
  EXPECT_EQ(batch.dev.pages_migrated(), one.dev.pages_migrated());

  // The host touches left fragmented pages; a following kernel pays their
  // extra fault cost identically on both devices.
  const std::int64_t before = one.dev.pages_migrated();
  const double k_one = one.dev.touch_device(one.buf.data(), 16 * P);
  const double k_batch = batch.dev.touch_device(batch.buf.data(), 16 * P);
  EXPECT_EQ(k_batch, k_one);
  EXPECT_EQ(batch.dev.pages_migrated(), one.dev.pages_migrated());
  const GpuModel m = small_pages();
  const auto moved = static_cast<double>(one.dev.pages_migrated() - before);
  EXPECT_GT(k_one, moved * (m.fault_per_page + P / m.link_bw));

  // Device-side batch against the per-block running sum, from a kernel's
  // own seconds, after the host pulls the pages back once more.
  for (const Device::Block& b : blocks) {
    (void)one.dev.touch_host(one.buf.data() + b.offset, b.length);
    (void)batch.dev.touch_host(batch.buf.data() + b.offset, b.length);
  }
  const double kernel = 1.25e-5;
  double s_one = kernel;
  for (const Device::Block& b : blocks)
    s_one += one.dev.touch_device(one.buf.data() + b.offset, b.length);
  double s_batch = kernel;
  batch.dev.touch_device(batch.buf.data(), blocks, s_batch);
  EXPECT_EQ(s_batch, s_one);
  EXPECT_GT(s_one, kernel);
  EXPECT_EQ(batch.dev.pages_migrated(), one.dev.pages_migrated());
}

TEST(Device, HooksDriveSimmpi) {
  // A UM buffer on rank 0 is sent to rank 1: the send must charge fault
  // time (device->host migration) on top of the wire cost.
  GpuModel gm = small_pages();
  mpi::NetModel nm;
  nm.send_overhead = 0;
  nm.recv_overhead = 0;
  nm.inter_node = {0.0, 1e18};  // isolate the fault cost
  nm.um_alpha_extra = 0;
  Device dev(gm);
  mpi::Runtime rt(2, nm);
  rt.set_mem_hooks(dev.hooks());
  std::vector<std::byte> um(4 * 4096);
  dev.register_range(um.data(), um.size(), mpi::MemSpace::Unified);
  rt.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send(um.data(), 4 * 4096, 1, 0);
      EXPECT_NEAR(c.clock().now(), 4 * 1e-6 + 4 * 4096.0 / 50e9, 1e-12);
    } else {
      std::vector<std::byte> host(4 * 4096);
      c.recv(host.data(), host.size(), 0, 0);
    }
  });
  dev.unregister_range(um.data());
}

}  // namespace
}  // namespace brickx::gpu
