#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/vec.h"
#include "core/cell_array.h"
#include "core/exchange_plan.h"
#include "core/field_set.h"
#include "simmpi/comm.h"
#include "simmpi/datatype.h"

namespace brickx::baseline {

/// Cell boxes exchanged with neighbor ν for a lexicographic array subdomain
/// of extent `domain` with ghost width `g` (disjoint across neighbors; the
/// union of send boxes is the surface instances, of recv boxes the ghost
/// frame).
Box<3> send_box(const BitSet& nu, const Vec3& domain, std::int64_t g);
Box<3> recv_box(const BitSet& nu, const Vec3& domain, std::int64_t g);

/// The classic pack-based ghost exchange on a lexicographic array — the
/// YASK-like baseline. One message per neighbor; surface cells are packed
/// into staging buffers with explicit copies (the on-node data movement the
/// paper eliminates), sent, and unpacked into the ghost frame. The plan's
/// wires are the staging buffers; binding it persistent replays only the
/// message posting — pack/unpack still run per round (the data movement is
/// the point of this baseline).
///
/// The phases are split so the harness can attribute time the way the
/// paper's artifact reports it (pack / call / wait):
///   pack(field) -> start(comm) -> finish(comm) -> unpack(field)
class PackExchanger : public ExchangePlan {
 public:
  /// `neighbor_ranks[i]` = rank of the neighbor in direction `dirs[i]`;
  /// `dirs` must be the full 3^D-1 direction enumeration shared by ranks.
  /// `fields > 1` sizes each staging buffer for all fields of an
  /// ArrayFields set, so one message per neighbor still carries every
  /// field (the message count is field-count-invariant).
  PackExchanger(const Vec3& domain, std::int64_t ghost,
                const std::vector<BitSet>& dirs,
                const std::vector<int>& neighbor_ranks, int fields = 1);

  /// Copy surface cells into the send buffers; returns bytes copied.
  std::size_t pack(const CellArray3& field);
  /// Multi-field pack: each neighbor's buffer holds field 0's surface
  /// cells, then field 1's, ... — one buffer (one message) for all fields.
  std::size_t pack(const ArrayFields& fields);
  /// Copy receive buffers into the ghost frame; returns bytes copied.
  std::size_t unpack(CellArray3& field);
  std::size_t unpack(ArrayFields& fields);

  /// Convenience full sequence.
  void exchange(mpi::Comm& comm, CellArray3& field);
  void exchange(mpi::Comm& comm, ArrayFields& fields);

  /// Bytes moved on-node per full exchange (pack + unpack).
  [[nodiscard]] std::int64_t onnode_byte_count() const {
    return 2 * send_byte_count();
  }

 private:
  struct Staging {
    Box<3> sbox, rbox;
    std::vector<double> sbuf, rbuf;
  };
  // Row-granular copies between field-major slabs over `frame` (fields_ of
  // them) and the per-neighbor buffers; return bytes copied.
  std::size_t pack_slabs(const double* slabs, const Box<3>& frame);
  std::size_t unpack_slabs(double* slabs, const Box<3>& frame);

  int fields_ = 1;
  std::vector<Staging> staging_;  ///< per neighbor, aligned with the wires
};

/// Ghost exchange through MPI derived datatypes — packing happens *inside*
/// the (simulated) MPI library via subarray types, exactly the paper's
/// MPI_Types baseline. One message per neighbor, no application staging:
/// every wire is a committed datatype laid over the field passed to
/// start() / make_persistent(). Persistent MPI freezes that buffer, so a
/// bound plan must keep being started on the same field (checked).
class MpiTypesExchanger : public ExchangePlan {
 public:
  MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                    const std::vector<BitSet>& dirs,
                    const std::vector<int>& neighbor_ranks,
                    const CellArray3& field_shape);

  /// Multi-field variant over an ArrayFields shape: per neighbor, the
  /// per-field subarrays are concatenated (MPI_Type_create_struct at the
  /// field-slab byte displacements) into ONE committed datatype, so one
  /// isend per (neighbor, round) moves every field — the message count
  /// stays field-count-invariant without application staging.
  MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                    const std::vector<BitSet>& dirs,
                    const std::vector<int>& neighbor_ranks,
                    const ArrayFields& fields_shape);

  /// Bind the committed datatypes to persistent requests anchored at
  /// `field`'s raw buffer.
  void make_persistent(mpi::Comm& comm, CellArray3& field);
  void make_persistent(mpi::Comm& comm, ArrayFields& fields);

  void start(mpi::Comm& comm, CellArray3& field);
  void start(mpi::Comm& comm, ArrayFields& fields);
  void exchange(mpi::Comm& comm, CellArray3& field);
  void exchange(mpi::Comm& comm, ArrayFields& fields);

  /// Total contiguous blocks the datatype engine walks per exchange (send
  /// plus receive side) — the quantity that dominates MPI_Types cost.
  [[nodiscard]] std::int64_t datatype_block_count() const {
    return setup_cost().dt_blocks;
  }

 private:
  // Commit one send and one receive type per neighbor; slab_bytes == 0
  // means a single CellArray3 field.
  void build(const Vec3& domain, std::int64_t ghost,
             const std::vector<BitSet>& dirs,
             const std::vector<int>& neighbor_ranks, const Box<3>& frame,
             std::size_t slab_bytes);
  // The raw base of a field matching this exchanger's field count.
  double* origin(CellArray3& field) const;
  double* origin(ArrayFields& fields) const;

  int fields_ = 1;
};

}  // namespace brickx::baseline
