#include "memmap/view.h"

#include <sys/mman.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "memmap/pagesize.h"
#include "obs/obs.h"

namespace brickx::mm {

namespace {
std::atomic<std::int64_t> g_live_segments{0};

[[noreturn]] void sys_fail(const char* what) {
  brickx::fail(std::string(what) + ": " + std::strerror(errno));
}
}  // namespace

std::int64_t live_view_segments() { return g_live_segments.load(); }

Mapping::Mapping(const MemFile& file) : size_(file.size()) {
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED,
                 file.fd(), 0);
  if (p == MAP_FAILED) sys_fail("mmap(Mapping)");
  base_ = static_cast<std::byte*>(p);
}

Mapping::Mapping(Mapping&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)), size_(std::exchange(o.size_, 0)) {}

Mapping& Mapping::operator=(Mapping&& o) noexcept {
  if (this != &o) {
    if (base_) munmap(base_, size_);
    base_ = std::exchange(o.base_, nullptr);
    size_ = std::exchange(o.size_, 0);
  }
  return *this;
}

Mapping::~Mapping() {
  if (base_) munmap(base_, size_);
}

View::View(View&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)),
      size_(std::exchange(o.size_, 0)),
      segments_(std::exchange(o.segments_, 0)),
      mapped_(std::exchange(o.mapped_, false)),
      segment_map_(std::move(o.segment_map_)) {}

View& View::operator=(View&& o) noexcept {
  if (this != &o) {
    release();
    base_ = std::exchange(o.base_, nullptr);
    size_ = std::exchange(o.size_, 0);
    segments_ = std::exchange(o.segments_, 0);
    mapped_ = std::exchange(o.mapped_, false);
    segment_map_ = std::move(o.segment_map_);
  }
  return *this;
}

View::~View() { release(); }

void View::release() {
  if (mapped_) {
    munmap(base_, size_);
    g_live_segments -= segments_;
  }
}

ViewBuilder::ViewBuilder(const MemFile& file) : file_(&file) {}

ViewBuilder& ViewBuilder::add(std::size_t offset, std::size_t length) {
  const std::size_t ps = host_page_size();
  BX_CHECK(offset % ps == 0, "view segment offset not page aligned");
  BX_CHECK(length % ps == 0, "view segment length not page aligned");
  BX_CHECK(offset + length <= file_->size(), "view segment beyond file end");
  if (length == 0) return *this;
  segs_.push_back({offset, length});
  total_ += length;
  return *this;
}

View ViewBuilder::build() const {
  if (total_ == 0) return View{};
  // Reserve the contiguous range first so nothing else can land inside it,
  // then overwrite it segment by segment with MAP_FIXED file mappings.
  void* base = mmap(nullptr, total_, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) sys_fail("mmap(reserve)");
  std::size_t at = 0;
  for (const auto& s : segs_) {
    void* want = static_cast<std::byte*>(base) + at;
    void* got = mmap(want, s.length, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_FIXED, file_->fd(),
                     static_cast<off_t>(s.offset));
    if (got == MAP_FAILED) {
      munmap(base, total_);
      sys_fail("mmap(MAP_FIXED segment)");
    }
    at += s.length;
  }
  View v = describe(static_cast<std::byte*>(base), /*mapped=*/true);
  g_live_segments += v.segments_;
  return v;
}

View ViewBuilder::build_unmapped(std::byte* bytes) const {
  if (total_ == 0) return View{};
  BX_CHECK(bytes != nullptr, "unmapped view needs backing bytes");
  return describe(bytes, /*mapped=*/false);
}

View ViewBuilder::describe(std::byte* base, bool mapped) const {
  View v;
  v.base_ = base;
  v.size_ = total_;
  v.segments_ = static_cast<std::int64_t>(segs_.size());
  v.mapped_ = mapped;
  std::size_t vo = 0;
  for (const auto& s : segs_) {
    v.segment_map_.push_back({vo, s.offset, s.length});
    vo += s.length;
  }
  obs::instant(obs::Cat::MmapSetup, "view_build");
  obs::counter_add("mm.views_built", 1);
  obs::counter_add("mm.view_segments", v.segments_);
  obs::counter_add("mm.view_bytes", static_cast<std::int64_t>(total_));
  return v;
}

}  // namespace brickx::mm
