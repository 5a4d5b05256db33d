#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "memmap/mem_file.h"

namespace brickx::mm {

/// An owned contiguous mapping of a whole MemFile — the canonical view a
/// program computes on.
class Mapping {
 public:
  /// Map `file` read/write, MAP_SHARED (all aliased views observe writes).
  explicit Mapping(const MemFile& file);
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  Mapping(Mapping&& o) noexcept;
  Mapping& operator=(Mapping&& o) noexcept;
  ~Mapping();

  [[nodiscard]] std::byte* data() const { return base_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Builds the paper's Figure-5 construct: a *single contiguous virtual
/// range* stitched together from page-aligned segments of a MemFile, so that
/// scattered (and possibly repeated) regions of storage can be handed to a
/// send/recv as one plain (pointer, length) message.
///
///   ViewBuilder b(file);
///   b.add(pos6, len6);       // file offsets, page-aligned
///   b.add(pos1, len1);
///   View v = b.build();      // v.data() .. v.data()+v.size() is contiguous
///
/// A view from build_unmapped() has the same size and segment table but no
/// mapping behind it: its bytes are caller-owned memory, not the file's.
class View {
 public:
  View() = default;
  View(const View&) = delete;
  View& operator=(const View&) = delete;
  View(View&& o) noexcept;
  View& operator=(View&& o) noexcept;
  ~View();

  [[nodiscard]] std::byte* data() const { return base_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool valid() const { return base_ != nullptr; }

  /// Number of file segments stitched into this view (for a mapped view,
  /// what counts against the kernel's vm.max_map_count budget).
  [[nodiscard]] std::int64_t segments() const { return segments_; }

  /// Where each stitched segment came from — (offset within this view,
  /// offset within the backing file, length). Lets aliasing-aware layers
  /// (e.g. the unified-memory simulator) map view addresses back to
  /// canonical pages.
  struct SegmentInfo {
    std::size_t view_offset;
    std::size_t file_offset;
    std::size_t length;
  };
  [[nodiscard]] const std::vector<SegmentInfo>& segment_map() const {
    return segment_map_;
  }

 private:
  friend class ViewBuilder;
  void release();

  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  std::int64_t segments_ = 0;
  bool mapped_ = false;  ///< base_ is our mapping (else caller-owned bytes)
  std::vector<SegmentInfo> segment_map_;
};

class ViewBuilder {
 public:
  explicit ViewBuilder(const MemFile& file);

  /// Append the file segment [offset, offset+length) to the view. Both must
  /// be multiples of the host page size; the segment must lie inside the
  /// file. The same segment may be added to any number of views — that is
  /// the aliasing MemMap exploits.
  ViewBuilder& add(std::size_t offset, std::size_t length);

  /// Total bytes queued so far.
  [[nodiscard]] std::size_t total() const { return total_; }

  /// Reserve one contiguous virtual range and MAP_FIXED each segment into
  /// it. Throws brickx::Error on any mmap failure (e.g. vm.max_map_count).
  [[nodiscard]] View build() const;

  /// The same view — size(), segments(), segment_map(), obs instant and
  /// mm.* counters — over the total() caller-owned bytes at `bytes`
  /// instead of a mapping: nothing is mmap'd and live_view_segments() is
  /// untouched. The bytes do not alias the file, so this is only for runs
  /// that never read ghost bytes; `bytes` must outlive the view.
  [[nodiscard]] View build_unmapped(std::byte* bytes) const;

 private:
  View describe(std::byte* base, bool mapped) const;

  const MemFile* file_;
  struct Seg {
    std::size_t offset, length;
  };
  std::vector<Seg> segs_;
  std::size_t total_ = 0;
};

/// Process-wide count of currently live mapped segments created via
/// ViewBuilder; tests use it to verify cleanup, and it mirrors the paper's
/// discussion of the vm.max_map_count (65530) limit.
std::int64_t live_view_segments();

}  // namespace brickx::mm
