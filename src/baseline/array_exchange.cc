#include "baseline/array_exchange.h"

#include <cstring>

#include "common/error.h"

namespace brickx::baseline {

Box<3> send_box(const BitSet& nu, const Vec3& domain, std::int64_t g) {
  Box<3> b;
  for (int a = 0; a < 3; ++a) {
    switch (nu.dir_of(a + 1)) {
      case 1:
        b.lo[a] = domain[a] - g;
        b.hi[a] = domain[a];
        break;
      case -1:
        b.lo[a] = 0;
        b.hi[a] = g;
        break;
      default:
        b.lo[a] = 0;
        b.hi[a] = domain[a];
    }
  }
  return b;
}

Box<3> recv_box(const BitSet& nu, const Vec3& domain, std::int64_t g) {
  Box<3> b;
  for (int a = 0; a < 3; ++a) {
    switch (nu.dir_of(a + 1)) {
      case 1:
        b.lo[a] = domain[a];
        b.hi[a] = domain[a] + g;
        break;
      case -1:
        b.lo[a] = -g;
        b.hi[a] = 0;
        break;
      default:
        b.lo[a] = 0;
        b.hi[a] = domain[a];
    }
  }
  return b;
}

namespace {
int ordinal_of(const std::vector<BitSet>& dirs, const BitSet& d) {
  for (std::size_t i = 0; i < dirs.size(); ++i)
    if (dirs[i] == d) return static_cast<int>(i);
  brickx::fail("direction missing from enumeration");
}

// Visit the axis-0 rows of `bx` in each of `fields` field-major slabs laid
// out lexicographically over `frame` (slabs frame.volume() doubles apart),
// in packed-buffer order: field 0's rows, then field 1's, ... Calls
// `f(slab_off, buf_off, n)` with the row's double offset into the slabs and
// into the packed buffer; both runs are contiguous.
template <typename F>
void for_each_packed_row(const Box<3>& frame, int fields, const Box<3>& bx,
                         F&& f) {
  const Vec3 ext = frame.extent();
  const std::int64_t slab = frame.volume();
  std::int64_t at = 0;
  for (int fi = 0; fi < fields; ++fi)
    for_each_row(bx, [&](const Vec3& lo, std::int64_t n) {
      f(fi * slab + linearize(lo - frame.lo, ext), at, n);
      at += n;
    });
}
}  // namespace

PackExchanger::PackExchanger(const Vec3& domain, std::int64_t ghost,
                             const std::vector<BitSet>& dirs,
                             const std::vector<int>& neighbor_ranks,
                             int fields)
    : fields_(fields) {
  BX_CHECK(dirs.size() == neighbor_ranks.size(),
           "direction and rank tables disagree");
  BX_CHECK(fields >= 1, "need at least one field");
  for (std::size_t v = 0; v < dirs.size(); ++v) {
    Staging& st = staging_.emplace_back();
    st.sbox = send_box(dirs[v], domain, ghost);
    st.rbox = recv_box(dirs[v], domain, ghost);
    BX_CHECK(st.sbox.volume() == st.rbox.volume(),
             "send/recv volumes must match");
    // One buffer (one message) per neighbor regardless of field count.
    st.sbuf.resize(static_cast<std::size_t>(st.sbox.volume() * fields));
    st.rbuf.resize(static_cast<std::size_t>(st.rbox.volume() * fields));
    const std::size_t bytes = st.sbuf.size() * sizeof(double);
    add_send(PlanWire{.rank = neighbor_ranks[v],
                      .tag = static_cast<int>(v),
                      .buf = reinterpret_cast<std::byte*>(st.sbuf.data()),
                      .bytes = bytes});
    add_recv(PlanWire{.rank = neighbor_ranks[v],
                      .tag = ordinal_of(dirs, dirs[v].flipped()),
                      .buf = reinterpret_cast<std::byte*>(st.rbuf.data()),
                      .bytes = bytes});
  }
  add_cost({.regions = static_cast<std::int64_t>(dirs.size())});  // box pairs
}

std::size_t PackExchanger::pack(const CellArray3& field) {
  BX_CHECK(fields_ == 1,
           "single-field pack on a multi-field exchanger; pass ArrayFields");
  return pack_slabs(field.raw().data(), field.box());
}

std::size_t PackExchanger::pack(const ArrayFields& fields) {
  BX_CHECK(fields.fields() == fields_,
           "field count does not match the exchanger's");
  return pack_slabs(fields.raw().data(), fields.box());
}

std::size_t PackExchanger::pack_slabs(const double* slabs,
                                      const Box<3>& frame) {
  std::size_t bytes = 0;
  for (Staging& st : staging_) {
    for_each_packed_row(
        frame, fields_, st.sbox,
        [&](std::int64_t s, std::int64_t b, std::int64_t n) {
          std::memcpy(st.sbuf.data() + b, slabs + s,
                      static_cast<std::size_t>(n) * sizeof(double));
        });
    bytes += st.sbuf.size() * sizeof(double);
  }
  return bytes;
}

std::size_t PackExchanger::unpack(CellArray3& field) {
  BX_CHECK(fields_ == 1,
           "single-field unpack on a multi-field exchanger; pass ArrayFields");
  return unpack_slabs(field.raw().data(), field.box());
}

std::size_t PackExchanger::unpack(ArrayFields& fields) {
  BX_CHECK(fields.fields() == fields_,
           "field count does not match the exchanger's");
  return unpack_slabs(fields.raw().data(), fields.box());
}

std::size_t PackExchanger::unpack_slabs(double* slabs, const Box<3>& frame) {
  std::size_t bytes = 0;
  for (Staging& st : staging_) {
    for_each_packed_row(
        frame, fields_, st.rbox,
        [&](std::int64_t s, std::int64_t b, std::int64_t n) {
          std::memcpy(slabs + s, st.rbuf.data() + b,
                      static_cast<std::size_t>(n) * sizeof(double));
        });
    bytes += st.rbuf.size() * sizeof(double);
  }
  return bytes;
}

void PackExchanger::exchange(mpi::Comm& comm, CellArray3& field) {
  pack(field);
  ExchangePlan::exchange(comm);
  unpack(field);
}

void PackExchanger::exchange(mpi::Comm& comm, ArrayFields& fields) {
  pack(fields);
  ExchangePlan::exchange(comm);
  unpack(fields);
}

MpiTypesExchanger::MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                                     const std::vector<BitSet>& dirs,
                                     const std::vector<int>& neighbor_ranks,
                                     const CellArray3& field_shape) {
  build(domain, ghost, dirs, neighbor_ranks, field_shape.box(), 0);
}

MpiTypesExchanger::MpiTypesExchanger(const Vec3& domain, std::int64_t ghost,
                                     const std::vector<BitSet>& dirs,
                                     const std::vector<int>& neighbor_ranks,
                                     const ArrayFields& fields_shape)
    : fields_(fields_shape.fields()) {
  build(domain, ghost, dirs, neighbor_ranks, fields_shape.box(),
        static_cast<std::size_t>(fields_shape.field_elems()) * sizeof(double));
}

void MpiTypesExchanger::build(const Vec3& domain, std::int64_t ghost,
                              const std::vector<BitSet>& dirs,
                              const std::vector<int>& neighbor_ranks,
                              const Box<3>& frame, std::size_t slab_bytes) {
  BX_CHECK(dirs.size() == neighbor_ranks.size(),
           "direction and rank tables disagree");
  const Vec3 sizes = frame.extent();
  // One committed type per side: the subarray `b` of the field, or — over
  // field slabs `slab_bytes` apart — the per-field subarrays concatenated
  // at the slab displacements (MPI_Type_create_struct).
  auto type_of = [&](const Box<3>& b) {
    auto sub = [&] {
      return mpi::Datatype::subarray<3>(sizes, b.extent(), b.lo - frame.lo,
                                        sizeof(double));
    };
    if (slab_bytes == 0) return sub();
    std::vector<std::pair<std::size_t, mpi::Datatype>> parts;
    for (int f = 0; f < fields_; ++f)
      parts.emplace_back(static_cast<std::size_t>(f) * slab_bytes, sub());
    return mpi::Datatype::concat(parts);
  };
  for (std::size_t v = 0; v < dirs.size(); ++v) {
    mpi::Datatype st = type_of(send_box(dirs[v], domain, ghost));
    mpi::Datatype rt = type_of(recv_box(dirs[v], domain, ghost));
    add_send(PlanWire{.rank = neighbor_ranks[v],
                      .tag = static_cast<int>(v),
                      .bytes = st.size(),
                      .type = std::move(st)});
    add_recv(PlanWire{.rank = neighbor_ranks[v],
                      .tag = ordinal_of(dirs, dirs[v].flipped()),
                      .bytes = rt.size(),
                      .type = std::move(rt)});
  }
  add_cost({.regions = static_cast<std::int64_t>(dirs.size())});  // box pairs
}

double* MpiTypesExchanger::origin(CellArray3& field) const {
  BX_CHECK(fields_ == 1,
           "single-field call on a multi-field exchanger; pass ArrayFields");
  return field.raw().data();
}

double* MpiTypesExchanger::origin(ArrayFields& fields) const {
  BX_CHECK(fields.fields() == fields_,
           "field count does not match the exchanger's");
  return fields.raw().data();
}

void MpiTypesExchanger::make_persistent(mpi::Comm& comm, CellArray3& field) {
  ExchangePlan::make_persistent(comm, origin(field));
}

void MpiTypesExchanger::make_persistent(mpi::Comm& comm,
                                        ArrayFields& fields) {
  ExchangePlan::make_persistent(comm, origin(fields));
}

void MpiTypesExchanger::start(mpi::Comm& comm, CellArray3& field) {
  ExchangePlan::start(comm, origin(field));
}

void MpiTypesExchanger::start(mpi::Comm& comm, ArrayFields& fields) {
  ExchangePlan::start(comm, origin(fields));
}

void MpiTypesExchanger::exchange(mpi::Comm& comm, CellArray3& field) {
  ExchangePlan::exchange(comm, origin(field));
}

void MpiTypesExchanger::exchange(mpi::Comm& comm, ArrayFields& fields) {
  ExchangePlan::exchange(comm, origin(fields));
}

}  // namespace brickx::baseline
