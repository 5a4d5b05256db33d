#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.h"
#include "memmap/mem_file.h"
#include "memmap/pagesize.h"
#include "memmap/view.h"

namespace brickx::mm {
namespace {

TEST(PageSize, HostPageSizeIsPowerOfTwo) {
  const std::size_t ps = host_page_size();
  EXPECT_GE(ps, 4096u);
  EXPECT_EQ(ps & (ps - 1), 0u);
}

TEST(PageSize, RoundUpAndWaste) {
  EXPECT_EQ(round_up(0, 4096), 0u);
  EXPECT_EQ(round_up(1, 4096), 4096u);
  EXPECT_EQ(round_up(4096, 4096), 4096u);
  EXPECT_EQ(round_up(4097, 4096), 8192u);
  // The paper's example: a 4^3 region of doubles wastes 7/8 of a 4KiB page.
  EXPECT_EQ(pad_waste(4 * 4 * 4 * 8, 4096), 4096u - 512u);
}

TEST(MemFile, CreatesAndRounds) {
  MemFile f(100);
  EXPECT_GE(f.fd(), 0);
  EXPECT_EQ(f.size(), host_page_size());
}

TEST(MemFile, MoveTransfersOwnership) {
  MemFile a(host_page_size());
  const int fd = a.fd();
  MemFile b = std::move(a);
  EXPECT_EQ(b.fd(), fd);
  EXPECT_EQ(a.fd(), -1);
}

TEST(Mapping, ReadsAndWritesBackToFile) {
  const std::size_t ps = host_page_size();
  MemFile f(4 * ps);
  Mapping m1(f);
  Mapping m2(f);  // second independent mapping of the same pages
  std::memset(m1.data(), 0xAB, 4 * ps);
  // Writes through one mapping are visible through the other (MAP_SHARED).
  EXPECT_EQ(std::to_integer<int>(m2.data()[0]), 0xAB);
  EXPECT_EQ(std::to_integer<int>(m2.data()[4 * ps - 1]), 0xAB);
}

TEST(View, StitchesSegmentsContiguously) {
  const std::size_t ps = host_page_size();
  MemFile f(8 * ps);
  Mapping canon(f);
  for (std::size_t p = 0; p < 8; ++p)
    std::memset(canon.data() + p * ps, static_cast<int>('a' + p), ps);

  // The paper's Figure 5: regions 1, 4, 6 appear contiguous in the view.
  ViewBuilder b(f);
  b.add(1 * ps, ps).add(4 * ps, ps).add(6 * ps, ps);
  View v = b.build();
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.size(), 3 * ps);
  EXPECT_EQ(std::to_integer<char>(v.data()[0]), 'b');
  EXPECT_EQ(std::to_integer<char>(v.data()[ps]), 'e');
  EXPECT_EQ(std::to_integer<char>(v.data()[2 * ps]), 'g');
}

TEST(View, WritesThroughViewHitCanonicalStorage) {
  const std::size_t ps = host_page_size();
  MemFile f(4 * ps);
  Mapping canon(f);
  ViewBuilder b(f);
  b.add(2 * ps, ps);
  View v = b.build();
  std::memset(v.data(), 0x5C, ps);
  EXPECT_EQ(std::to_integer<int>(canon.data()[2 * ps]), 0x5C);
  EXPECT_EQ(std::to_integer<int>(canon.data()[2 * ps + ps - 1]), 0x5C);
  // Pages outside the view are untouched.
  EXPECT_EQ(std::to_integer<int>(canon.data()[ps]), 0x00);
}

TEST(View, SameSegmentMappedTwiceAliases) {
  const std::size_t ps = host_page_size();
  MemFile f(2 * ps);
  ViewBuilder b(f);
  b.add(0, ps).add(0, ps);  // overlapping regions sent to two neighbors
  View v = b.build();
  v.data()[7] = std::byte{42};
  EXPECT_EQ(std::to_integer<int>(v.data()[ps + 7]), 42);
}

TEST(View, UnalignedSegmentsRejected) {
  const std::size_t ps = host_page_size();
  MemFile f(2 * ps);
  ViewBuilder b(f);
  EXPECT_THROW(b.add(ps / 2, ps), brickx::Error);
  EXPECT_THROW(b.add(0, ps / 2), brickx::Error);
  EXPECT_THROW(b.add(0, 4 * ps), brickx::Error);  // beyond file end
}

TEST(View, EmptyBuilderYieldsInvalidView) {
  MemFile f(host_page_size());
  ViewBuilder b(f);
  View v = b.build();
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v.size(), 0u);
}

TEST(View, SegmentAccountingBalances) {
  const std::size_t ps = host_page_size();
  const std::int64_t before = live_view_segments();
  {
    MemFile f(8 * ps);
    ViewBuilder b(f);
    b.add(0, ps).add(2 * ps, 2 * ps).add(6 * ps, ps);
    View v = b.build();
    EXPECT_EQ(v.segments(), 3);
    EXPECT_EQ(live_view_segments(), before + 3);
    View w = std::move(v);
    EXPECT_EQ(live_view_segments(), before + 3);
  }
  EXPECT_EQ(live_view_segments(), before);
}

TEST(View, UnmappedBuildDescribesTheSameView) {
  const std::size_t ps = host_page_size();
  MemFile f(8 * ps);
  Mapping canon(f);
  ViewBuilder b(f);
  b.add(1 * ps, ps).add(4 * ps, 2 * ps).add(1 * ps, ps);  // 1 repeats
  const View mapped = b.build();
  const std::int64_t before = live_view_segments();
  std::vector<std::byte> bytes(b.total());
  const View u = b.build_unmapped(bytes.data());
  EXPECT_EQ(live_view_segments(), before);
  ASSERT_TRUE(u.valid());
  EXPECT_EQ(u.data(), bytes.data());
  EXPECT_EQ(u.size(), mapped.size());
  EXPECT_EQ(u.segments(), mapped.segments());
  ASSERT_EQ(u.segment_map().size(), mapped.segment_map().size());
  for (std::size_t i = 0; i < u.segment_map().size(); ++i) {
    const auto& x = u.segment_map()[i];
    const auto& y = mapped.segment_map()[i];
    EXPECT_EQ(x.view_offset, y.view_offset) << i;
    EXPECT_EQ(x.file_offset, y.file_offset) << i;
    EXPECT_EQ(x.length, y.length) << i;
  }
  // The bytes are the caller's, not the file's.
  std::memset(u.data(), 0x3C, u.size());
  EXPECT_EQ(std::to_integer<int>(canon.data()[1 * ps]), 0);
  EXPECT_EQ(std::to_integer<int>(mapped.data()[0]), 0);
}

TEST(View, UnmappedViewsMoveWithoutTouchingTheMapBudget) {
  const std::size_t ps = host_page_size();
  const std::int64_t before = live_view_segments();
  {
    MemFile f(4 * ps);
    ViewBuilder b(f);
    b.add(0, ps).add(2 * ps, ps);
    std::vector<std::byte> bytes(2 * b.total());
    View u = b.build_unmapped(bytes.data());
    View w = b.build_unmapped(bytes.data() + b.total());
    w = std::move(u);  // releasing an unmapped view frees nothing
    EXPECT_FALSE(u.valid());
    EXPECT_EQ(w.data(), bytes.data());
    EXPECT_EQ(live_view_segments(), before);
    View m = b.build();
    EXPECT_EQ(live_view_segments(), before + 2);
    m = std::move(w);  // unmaps the mapped view it replaces
    EXPECT_EQ(live_view_segments(), before);
    EXPECT_EQ(m.data(), bytes.data());
    w = b.build();
    EXPECT_EQ(live_view_segments(), before + 2);
  }
  EXPECT_EQ(live_view_segments(), before);
  MemFile f(ps);
  EXPECT_FALSE(ViewBuilder(f).build_unmapped(nullptr).valid());
}

TEST(View, ManySegmentsStressWithinMapLimit) {
  // The paper notes vm.max_map_count defaults to 65530; layouts keep well
  // under it. Exercise a few hundred segments to prove stitching scales.
  const std::size_t ps = host_page_size();
  MemFile f(256 * ps);
  ViewBuilder b(f);
  Mapping canon(f);
  for (std::size_t i = 0; i < 256; ++i) {
    canon.data()[(255 - i) * ps] = static_cast<std::byte>(i);
    b.add((255 - i) * ps, ps);  // reversed order
  }
  View v = b.build();
  for (std::size_t i = 0; i < 256; ++i)
    EXPECT_EQ(std::to_integer<std::size_t>(v.data()[i * ps]), i);
}

}  // namespace
}  // namespace brickx::mm
