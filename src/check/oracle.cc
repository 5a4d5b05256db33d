#include "check/oracle.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <vector>

#include "baseline/array_exchange.h"
#include "common/error.h"
#include "core/cell_array.h"
#include "core/exchange.h"
#include "core/exchange_view.h"
#include "core/layout.h"
#include "netsim/fabric.h"
#include "simmpi/cart.h"
#include "simmpi/comm.h"

namespace brickx::conformance {

namespace {

using mpi::Cart;
using mpi::Comm;
using mpi::Runtime;

enum class M { Basic, Layout, MemMap, Pack, Types };
constexpr M kAllMethods[] = {M::Basic, M::Layout, M::MemMap, M::Pack,
                             M::Types};

const char* mname(M m) {
  switch (m) {
    case M::Basic:
      return "Basic";
    case M::Layout:
      return "Layout";
    case M::MemMap:
      return "MemMap";
    case M::Pack:
      return "Pack";
    case M::Types:
      return "MPI_Types";
  }
  return "?";
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The seeded fill: a hash-valued function of the *global* (periodically
/// wrapped) cell coordinate and the round. Adversarial by design — unlike
/// a linear ramp, any misrouted, stale or byte-shifted cell disagrees.
double fill_value(std::uint64_t seed, int round, Vec3 g, const Vec3& ext) {
  for (int a = 0; a < 3; ++a) g[a] = ((g[a] % ext[a]) + ext[a]) % ext[a];
  const std::uint64_t idx = static_cast<std::uint64_t>(
      (g[2] * ext[1] + g[1]) * ext[0] + g[0]);
  const std::uint64_t h =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(round) ^ idx));
  // Map to a finite double in [1, 2): every bit pattern is a normal value,
  // so bitwise comparison is exact and NaN traps cannot hide mismatches.
  return 1.0 + static_cast<double>(h >> 12) * 0x1.0p-52;
}

/// Per-field fill seed: field 0 keeps the historical single-field fill
/// bit-exactly; higher fields carry distinct salted data so a cross-field
/// routing error (wrong slab, wrong AoSoA offset) cannot hide.
std::uint64_t field_seed(std::uint64_t seed, int f) {
  return f == 0 ? seed
                : mix64(seed ^ (0x8badf00dull + static_cast<std::uint64_t>(f)));
}

/// Everything one method run produces: the serialized post-exchange ghost
/// frames (per rank, rounds concatenated), per-rank comm counters and
/// virtual times, and the exchanger's own accounting from rank 0.
struct MethodRun {
  std::vector<std::vector<double>> frames;  ///< [rank] round-major frames
  std::vector<mpi::CommCounters> counters;  ///< [rank]
  std::vector<double> vtimes;               ///< [rank]
  std::int64_t msgs_per_exchange = 0;       ///< sends per round (rank 0)
  std::int64_t wire_bytes = 0;              ///< bytes sent per round (rank 0)
  std::int64_t payload_bytes = 0;           ///< useful bytes per round
  double padding_percent = 0.0;             ///< MemMap only
};

MethodRun run_method(M m, const FuzzConfig& cfg, mpi::FaultInjector* fi) {
  const int nranks = cfg.nranks();
  mpi::NetModel model;
  model.ranks_per_node = cfg.ranks_per_node;
  Runtime rt(nranks, model);
  if (cfg.fabric != netsim::FabricKind::Flat) {
    const mpi::LinkParams inter = model.inter_node;
    rt.set_fabric(netsim::make_fabric(cfg.fabric, cfg.mapping, nranks,
                                      cfg.ranks_per_node, inter.bw,
                                      inter.alpha / 2.0, inter.alpha, {},
                                      {static_cast<int>(cfg.rank_dims[0]),
                                       static_cast<int>(cfg.rank_dims[1]),
                                       static_cast<int>(cfg.rank_dims[2])}));
  }
  if (fi != nullptr) rt.set_fault_injector(fi);
  rt.set_transport(cfg.transport);

  MethodRun out;
  out.frames.resize(static_cast<std::size_t>(nranks));

  const Vec3 N = cfg.subdomain;
  const std::int64_t g = cfg.ghost;
  const Vec3 G = Vec3::fill(g);
  const Vec3 ext = cfg.rank_dims * N;
  const Box<3> frame_box{Vec3{0, 0, 0} - G, N + G};

  rt.run([&](Comm& comm) {
    Cart<3> cart(comm, cfg.rank_dims);
    const Vec3 off = cart.coords() * N;
    auto& frames = out.frames[static_cast<std::size_t>(comm.rank())];

    auto fill_own = [&](CellArray3& arr, int round, int f) {
      for_each(Box<3>{{0, 0, 0}, N}, [&](const Vec3& p) {
        arr.at(p) = fill_value(field_seed(cfg.seed, f), round, p + off, ext);
      });
    };
    auto record_frame = [&](const CellArray3& fr) {
      for_each(fr.box(), [&](const Vec3& p) { frames.push_back(fr.at(p)); });
    };

    if ((m == M::Pack || m == M::Types) && cfg.fields > 1) {
      // Multi-field array baselines: one ArrayFields allocation, one
      // message per neighbor carrying every field slab.
      ArrayFields field(frame_box, cfg.fields);
      const auto dirs = Cart<3>::all_directions();
      std::vector<int> nbrs;
      nbrs.reserve(dirs.size());
      for (const auto& d : dirs) nbrs.push_back(cart.neighbor(d));
      std::optional<baseline::PackExchanger> pack;
      std::optional<baseline::MpiTypesExchanger> types;
      if (m == M::Pack)
        pack.emplace(N, g, dirs, nbrs, cfg.fields);
      else
        types.emplace(N, g, dirs, nbrs, field);
      if (cfg.persistent) {
        if (pack) pack->make_persistent(comm);
        if (types) types->make_persistent(comm, field);
      }
      for (int round = 0; round < cfg.rounds; ++round) {
        for (int f = 0; f < cfg.fields; ++f)
          for_each(Box<3>{{0, 0, 0}, N}, [&](const Vec3& p) {
            field.at(f, p) =
                fill_value(field_seed(cfg.seed, f), round, p + off, ext);
          });
        if (pack)
          pack->exchange(comm, field);
        else
          types->exchange(comm, field);
        // Field slabs are frame-ordered (axis 0 fastest), matching
        // record_frame's for_each order over the frame box.
        for (int f = 0; f < cfg.fields; ++f)
          frames.insert(frames.end(), field.field_base(f),
                        field.field_base(f) + field.field_elems());
      }
      if (comm.rank() == 0) {
        const ExchangePlan& plan =
            pack ? static_cast<const ExchangePlan&>(*pack) : *types;
        out.msgs_per_exchange = plan.send_message_count();
        out.wire_bytes = out.payload_bytes = plan.send_byte_count();
      }
      return;
    }

    if (m == M::Pack || m == M::Types) {
      CellArray3 field(frame_box);
      for_each(frame_box, [&](const Vec3& p) { field.at(p) = 0.0; });
      const auto dirs = Cart<3>::all_directions();
      std::vector<int> nbrs;
      nbrs.reserve(dirs.size());
      for (const auto& d : dirs) nbrs.push_back(cart.neighbor(d));
      std::optional<baseline::PackExchanger> pack;
      std::optional<baseline::MpiTypesExchanger> types;
      if (m == M::Pack)
        pack.emplace(N, g, dirs, nbrs);
      else
        types.emplace(N, g, dirs, nbrs, field);
      if (cfg.persistent) {
        if (pack) pack->make_persistent(comm);
        if (types) types->make_persistent(comm, field);
      }
      for (int round = 0; round < cfg.rounds; ++round) {
        fill_own(field, round, 0);
        if (pack)
          pack->exchange(comm, field);
        else
          types->exchange(comm, field);
        record_frame(field);
      }
      if (comm.rank() == 0) {
        const ExchangePlan& plan =
            pack ? static_cast<const ExchangePlan&>(*pack) : *types;
        out.msgs_per_exchange = plan.send_message_count();
        out.wire_bytes = out.payload_bytes = plan.send_byte_count();
      }
      return;
    }

    BrickDecomp<3> dec(N, g, cfg.brick, fuzz_layout(cfg.tuned_layout));
    BrickStorage store = m == M::MemMap
                             ? dec.mmap_alloc(cfg.fields, cfg.page_size)
                             : dec.allocate(cfg.fields);
    const auto ranks_tbl = populate(cart, dec);
    std::optional<Exchanger<3>> ex;
    std::optional<ExchangeView<3>> ev;
    if (m == M::MemMap)
      ev.emplace(dec, store, ranks_tbl);
    else
      ex.emplace(dec, store, ranks_tbl,
                 m == M::Basic ? Exchanger<3>::Mode::Basic
                               : Exchanger<3>::Mode::Layout);
    ExchangePlan& plan = ev ? static_cast<ExchangePlan&>(*ev) : *ex;
    // Bound plan handles must also survive a faulted round (the throw
    // unwinds through the request destructors while in flight).
    if (cfg.persistent) plan.make_persistent(comm);
    if (cfg.overlap) plan.make_partitioned(comm);

    CellArray3 own(Box<3>{{0, 0, 0}, N});
    CellArray3 fr(frame_box);
    for (int round = 0; round < cfg.rounds; ++round) {
      // AoSoA: every field lives inside the same brick chunk, so ONE
      // exchange per round moves all of them — the message count below is
      // asserted field-count-invariant by run_oracle.
      for (int f = 0; f < cfg.fields; ++f) {
        fill_own(own, round, f);
        cells_to_bricks(dec, own, store, f);
      }
      if (cfg.overlap) {
        // The partitioned replay: every send partition readied in flat
        // order, every receive partition consumed in *reverse* order
        // (deliberately not the arrival order), then the round closed.
        // Delivered frames must still be bitwise identical to the bulk
        // path — partition granularity may only change timing, never data.
        plan.part_start();
        const int ns = static_cast<int>(plan.send_parts().size());
        for (int j = 0; j < ns; ++j) plan.part_pready(j);
        const int nr = static_cast<int>(plan.recv_parts().size());
        for (int j = nr - 1; j >= 0; --j) (void)plan.part_arrived(j);
        plan.part_finish();
      } else {
        plan.exchange(comm);
      }
      for (int f = 0; f < cfg.fields; ++f) {
        bricks_to_cells(dec, store, f, fr);
        record_frame(fr);
      }
    }
    if (comm.rank() == 0) {
      out.msgs_per_exchange = plan.send_message_count();
      out.wire_bytes = out.payload_bytes = plan.send_byte_count();
      if (ev) {
        out.payload_bytes = ev->payload_byte_count();
        out.padding_percent = ev->padding_overhead_percent();
      }
    }
  });

  out.counters.reserve(static_cast<std::size_t>(nranks));
  out.vtimes.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    out.counters.push_back(rt.final_counters(r));
    out.vtimes.push_back(rt.final_vtime(r));
  }
  return out;
}

/// The portion of each recorded frame that is ghost cells (the own block
/// is locally produced and bitwise-trivially equal — still compared, but a
/// mismatch there means the serializer, not the exchange, broke).
std::int64_t frame_cells(const FuzzConfig& cfg) {
  const Vec3 full = cfg.subdomain + Vec3::fill(2 * cfg.ghost);
  return full.prod();
}

}  // namespace

OracleReport run_oracle(const FuzzConfig& cfg) {
  OracleReport rep;
  auto fail = [&](const std::string& what) {
    if (rep.ok) {
      rep.ok = false;
      rep.diagnosis = what + " [" + serialize_config(cfg) + "]";
    }
  };

  std::vector<MethodRun> runs;
  runs.reserve(std::size(kAllMethods));
  for (M m : kAllMethods) runs.push_back(run_method(m, cfg, nullptr));
  rep.methods_compared = static_cast<int>(runs.size());

  const MethodRun& basic = runs[0];
  const MethodRun& layout = runs[1];
  const MethodRun& memmap = runs[2];
  rep.basic_msgs = basic.msgs_per_exchange;
  rep.layout_msgs = layout.msgs_per_exchange;
  rep.memmap_msgs = memmap.msgs_per_exchange;
  rep.payload_bytes = layout.payload_bytes;
  rep.memmap_wire_bytes = memmap.wire_bytes;

  // --- message-count structure (paper Table 1 / Eq. 1) ---------------------
  // The exact 98 / 42 / 26 counts require every surface region non-empty,
  // i.e. subdomain > 2 * ghost on every axis. At exactly 2 * ghost the
  // interior slab along that axis is empty and Basic/Layout legitimately
  // send fewer messages; the ordering and the per-neighbor floor still
  // hold there.
  bool full_regions = true;
  for (int a = 0; a < 3; ++a)
    full_regions = full_regions && cfg.subdomain[a] > 2 * cfg.ghost;
  if (full_regions) {
    if (basic.msgs_per_exchange != basic_message_count(3))
      fail("Basic sends " + std::to_string(basic.msgs_per_exchange) +
           " messages per rank, expected " +
           std::to_string(basic_message_count(3)));
    const LayoutSpec lay = fuzz_layout(cfg.tuned_layout);
    if (layout.msgs_per_exchange != message_count(lay, 3))
      fail("Layout sends " + std::to_string(layout.msgs_per_exchange) +
           " messages per rank, expected " +
           std::to_string(message_count(lay, 3)));
    if (layout.msgs_per_exchange < layout_message_lower_bound(3))
      fail("Layout beats the Eq. 1 lower bound — the count model is broken");
  } else if (basic.msgs_per_exchange > basic_message_count(3)) {
    fail("Basic exceeds the 98-message ceiling with empty regions");
  }
  if (memmap.msgs_per_exchange != (27 - 1))
    fail("MemMap sends " + std::to_string(memmap.msgs_per_exchange) +
         " messages per rank, expected 26");
  if (!(memmap.msgs_per_exchange <= layout.msgs_per_exchange &&
        layout.msgs_per_exchange <= basic.msgs_per_exchange))
    fail("message-count ordering memmap <= layout <= basic violated");
  for (const MethodRun& r : {runs[3], runs[4]})
    if (r.msgs_per_exchange != 26)
      fail("array baseline sends " + std::to_string(r.msgs_per_exchange) +
           " messages per rank, expected 26");

  // --- payload accounting --------------------------------------------------
  const Vec3 N = cfg.subdomain;
  const std::int64_t g2 = 2 * cfg.ghost;
  const std::int64_t ghost_cells =
      (N[0] + g2) * (N[1] + g2) * (N[2] + g2) - N.prod();
  const std::int64_t expect_payload =
      ghost_cells * static_cast<std::int64_t>(sizeof(double)) * cfg.fields;
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (runs[i].payload_bytes != expect_payload)
      fail(std::string(mname(kAllMethods[i])) + " moves " +
           std::to_string(runs[i].payload_bytes) +
           " payload bytes per exchange, expected ghost-frame volume " +
           std::to_string(expect_payload));
  // Unpadded methods put exactly the payload on the wire.
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (kAllMethods[i] != M::MemMap &&
        runs[i].wire_bytes != runs[i].payload_bytes)
      fail(std::string(mname(kAllMethods[i])) + " wire bytes != payload");
  // MemMap pads views to page boundaries: wire >= payload, and the padding
  // percentage must satisfy Table 2's formula.
  if (memmap.wire_bytes < memmap.payload_bytes)
    fail("MemMap wire bytes below payload — padding accounting corrupt");
  {
    const double expect_pct =
        memmap.payload_bytes == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(memmap.wire_bytes -
                                      memmap.payload_bytes) /
                  static_cast<double>(memmap.payload_bytes);
    const double got = memmap.padding_percent;
    if (got < expect_pct - 1e-9 || got > expect_pct + 1e-9)
      fail("MemMap padding percent " + std::to_string(got) +
           " disagrees with (wire - payload) / payload = " +
           std::to_string(expect_pct));
  }

  // --- obs counter consistency --------------------------------------------
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::int64_t ms = 0, mr = 0, bs = 0, br = 0;
    for (const auto& c : runs[i].counters) {
      ms += c.msgs_sent;
      mr += c.msgs_recv;
      bs += c.bytes_sent;
      br += c.bytes_recv;
    }
    if (ms != mr)
      fail(std::string(mname(kAllMethods[i])) + ": global msgs_sent " +
           std::to_string(ms) + " != msgs_recv " + std::to_string(mr));
    if (bs != br)
      fail(std::string(mname(kAllMethods[i])) + ": global bytes_sent " +
           std::to_string(bs) + " != bytes_recv " + std::to_string(br));
    // Rank 0's counter must agree with the exchanger's own plan accounting
    // (ties the obs layer to the geometry layer).
    const auto& c0 = runs[i].counters[0];
    const std::int64_t rounds = cfg.rounds;
    if (c0.msgs_sent != rounds * runs[i].msgs_per_exchange)
      fail(std::string(mname(kAllMethods[i])) + ": rank-0 msgs_sent " +
           std::to_string(c0.msgs_sent) + " != rounds * plan count " +
           std::to_string(rounds * runs[i].msgs_per_exchange));
    if (c0.bytes_sent != rounds * runs[i].wire_bytes)
      fail(std::string(mname(kAllMethods[i])) + ": rank-0 bytes_sent " +
           std::to_string(c0.bytes_sent) + " != rounds * plan bytes " +
           std::to_string(rounds * runs[i].wire_bytes));
  }

  // --- bit-identical post-exchange frames ----------------------------------
  const std::size_t want = static_cast<std::size_t>(frame_cells(cfg)) *
                           static_cast<std::size_t>(cfg.rounds) *
                           static_cast<std::size_t>(cfg.fields);
  const Vec3 G = Vec3::fill(cfg.ghost);
  const Vec3 ext = cfg.rank_dims * N;
  for (int r = 0; r < cfg.nranks(); ++r) {
    const auto& ref = runs[0].frames[static_cast<std::size_t>(r)];
    if (ref.size() != want) {
      fail("serialized frame has wrong cell count");
      break;
    }
    // Analytic expectation: the reference method must reproduce the fill
    // function at every frame cell (wrapped globally).
    {
      // Rank r's cart coords (delinearize is the Cart convention).
      const Vec3 off = delinearize<3>(r, cfg.rank_dims) * N;
      std::size_t at = 0;
      for (int round = 0; round < cfg.rounds && rep.ok; ++round) {
        for (int f = 0; f < cfg.fields && rep.ok; ++f) {
          const std::uint64_t fseed = field_seed(cfg.seed, f);
          std::int64_t bad = 0;
          for_each(Box<3>{Vec3{0, 0, 0} - G, N + G}, [&](const Vec3& p) {
            if (ref[at++] != fill_value(fseed, round, p + off, ext)) ++bad;
          });
          if (bad != 0)
            fail("Basic frame disagrees with the analytic fill at " +
                 std::to_string(bad) + " cells (rank " + std::to_string(r) +
                 ", round " + std::to_string(round) + ", field " +
                 std::to_string(f) + ")");
        }
      }
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      const auto& got = runs[i].frames[static_cast<std::size_t>(r)];
      if (got.size() != ref.size() ||
          std::memcmp(got.data(), ref.data(),
                      ref.size() * sizeof(double)) != 0) {
        std::size_t first = 0;
        while (first < got.size() && first < ref.size() &&
               got[first] == ref[first])
          ++first;
        fail(std::string(mname(kAllMethods[i])) +
             " frame differs from Basic at rank " + std::to_string(r) +
             ", flat cell " + std::to_string(first));
      }
    }
  }

  // --- partitioned-vs-bulk invariance --------------------------------------
  // When this config replayed the brick methods over partitioned requests,
  // re-run one of them over the bulk path: scheduling granularity may only
  // change timing — delivered frames and traffic counters must be bitwise
  // identical between the two replay mechanisms.
  if (cfg.overlap) {
    FuzzConfig bulk_cfg = cfg;
    bulk_cfg.overlap = false;
    const MethodRun bulk_run = run_method(M::Layout, bulk_cfg, nullptr);
    for (int r = 0; r < cfg.nranks(); ++r) {
      const auto& ref = layout.frames[static_cast<std::size_t>(r)];
      const auto& got = bulk_run.frames[static_cast<std::size_t>(r)];
      if (got.size() != ref.size() ||
          std::memcmp(got.data(), ref.data(),
                      ref.size() * sizeof(double)) != 0) {
        fail("delivered frames differ between partitioned and bulk replay "
             "at rank " + std::to_string(r));
        break;
      }
      const mpi::CommCounters& a =
          layout.counters[static_cast<std::size_t>(r)];
      const mpi::CommCounters& b =
          bulk_run.counters[static_cast<std::size_t>(r)];
      if (a.msgs_sent != b.msgs_sent || a.bytes_sent != b.bytes_sent ||
          a.msgs_recv != b.msgs_recv || a.bytes_recv != b.bytes_recv)
        fail("comm counters differ between partitioned and bulk replay at "
             "rank " + std::to_string(r));
    }
  }

  // --- transport invariance ------------------------------------------------
  // The on-node tier (DESIGN.md §13) may only change *timing*: delivered
  // ghost frames and the send/receive counters must be bitwise identical
  // whether messages rode the flat fabric path, the shared-memory short
  // circuit, or node-leader aggregation frames.
  {
    std::vector<transport::Kind> kinds = {transport::Kind::Flat,
                                          transport::Kind::Shm};
    if (cfg.ranks_per_node > 1) kinds.push_back(transport::Kind::ShmAgg);
    for (transport::Kind k : kinds) {
      if (k == cfg.transport) continue;
      FuzzConfig alt = cfg;
      alt.transport = k;
      const MethodRun other = run_method(M::Basic, alt, nullptr);
      for (int r = 0; r < cfg.nranks(); ++r) {
        const auto& ref = basic.frames[static_cast<std::size_t>(r)];
        const auto& got = other.frames[static_cast<std::size_t>(r)];
        if (got.size() != ref.size() ||
            std::memcmp(got.data(), ref.data(),
                        ref.size() * sizeof(double)) != 0) {
          fail(std::string("delivered frames differ between transport=") +
               transport::kind_name(cfg.transport) + " and transport=" +
               transport::kind_name(k) + " at rank " + std::to_string(r));
          break;
        }
        const mpi::CommCounters& a = basic.counters[static_cast<std::size_t>(r)];
        const mpi::CommCounters& b = other.counters[static_cast<std::size_t>(r)];
        if (a.msgs_sent != b.msgs_sent || a.bytes_sent != b.bytes_sent ||
            a.msgs_recv != b.msgs_recv || a.bytes_recv != b.bytes_recv ||
            a.msgs_intra != b.msgs_intra || a.msgs_inter != b.msgs_inter)
          fail(std::string("comm counters differ between transport=") +
               transport::kind_name(cfg.transport) + " and transport=" +
               transport::kind_name(k) + " at rank " + std::to_string(r));
      }
    }
  }

  // --- mapping invariance ----------------------------------------------------
  // Rank-to-node placement (block / round-robin / greedy / rcb / embed) is
  // a pure timing lever: it decides which messages cross the fabric and
  // what contention they see, but the delivered ghost frames and the
  // send/receive totals must be bitwise identical under every mapping.
  // (The intra/inter locality *split* legitimately moves — that is the
  // point of the lever — so it is exempt.)
  if (cfg.fabric != netsim::FabricKind::Flat) {
    for (netsim::MapKind k :
         {netsim::MapKind::Block, netsim::MapKind::RoundRobin,
          netsim::MapKind::Greedy, netsim::MapKind::Rcb,
          netsim::MapKind::Embed}) {
      if (k == cfg.mapping) continue;
      FuzzConfig alt = cfg;
      alt.mapping = k;
      const MethodRun other = run_method(M::Layout, alt, nullptr);
      for (int r = 0; r < cfg.nranks(); ++r) {
        const auto& ref = layout.frames[static_cast<std::size_t>(r)];
        const auto& got = other.frames[static_cast<std::size_t>(r)];
        if (got.size() != ref.size() ||
            std::memcmp(got.data(), ref.data(),
                        ref.size() * sizeof(double)) != 0) {
          fail(std::string("delivered frames differ between mapping=") +
               netsim::map_name(cfg.mapping) + " and mapping=" +
               netsim::map_name(k) + " at rank " + std::to_string(r));
          break;
        }
        const mpi::CommCounters& a =
            layout.counters[static_cast<std::size_t>(r)];
        const mpi::CommCounters& b =
            other.counters[static_cast<std::size_t>(r)];
        if (a.msgs_sent != b.msgs_sent || a.bytes_sent != b.bytes_sent ||
            a.msgs_recv != b.msgs_recv || a.bytes_recv != b.bytes_recv)
          fail(std::string("comm totals differ between mapping=") +
               netsim::map_name(cfg.mapping) + " and mapping=" +
               netsim::map_name(k) + " at rank " + std::to_string(r));
      }
    }
  }
  return rep;
}

FaultOracleReport run_fault_oracle(const FuzzConfig& cfg,
                                   const mpi::FaultSpec& spec) {
  FaultOracleReport rep;
  auto fail = [&](const std::string& what) {
    if (rep.ok) {
      rep.ok = false;
      rep.diagnosis = what + " [" + serialize_config(cfg) +
                      " faults: " + describe(spec) + "]";
    }
  };

  const MethodRun ref = run_method(M::Layout, cfg, nullptr);
  mpi::FaultInjector fi(spec);
  bool completed = false;
  MethodRun faulty;
  try {
    faulty = run_method(M::Layout, cfg, &fi);
    completed = true;
  } catch (const brickx::Error& e) {
    rep.error_raised = true;
    rep.fault_diagnosed =
        std::string_view(e.what()).find("fault detected") !=
        std::string_view::npos;
    if (!rep.fault_diagnosed)
      fail(std::string("faulty run failed with a non-fault error: ") +
           e.what());
  }
  rep.counts = fi.counts();

  if (!spec.corrupting()) {
    // Benign schedule (delay/reorder only): must complete, deliver
    // bit-identical data, and never trip the integrity layer.
    if (rep.error_raised)
      fail("benign (delay/reorder) schedule raised an error");
    if (completed) {
      if (faulty.frames != ref.frames)
        fail("benign schedule changed delivered data");
      if (rep.counts.detected != 0)
        fail("benign schedule tripped the integrity layer");
      if (rep.counts.leftover != 0)
        fail("benign schedule left undelivered messages");
      // Delays only ever push virtual time forward under the flat fabric
      // (contention fabrics re-solve sharing, so only data is asserted).
      if (cfg.fabric == netsim::FabricKind::Flat) {
        double vmax_ref = 0, vmax = 0;
        for (double v : ref.vtimes) vmax_ref = std::max(vmax_ref, v);
        for (double v : faulty.vtimes) vmax = std::max(vmax, v);
        if (vmax < vmax_ref)
          fail("delay-only schedule moved virtual time backwards");
      }
    }
    return rep;
  }

  // Corrupting schedule: nothing corrupting may slip through silently.
  if (completed) {
    if (rep.counts.dropped + rep.counts.truncated + rep.counts.corrupted > 0)
      fail("corrupting faults were injected but the run completed without "
           "a detection");
    // Every duplicated replay must be quarantined, not absorbed.
    if (rep.counts.leftover != rep.counts.duplicated)
      fail("duplicate replays neither detected nor swept: leftover " +
           std::to_string(rep.counts.leftover) + " of " +
           std::to_string(rep.counts.duplicated));
    if (completed && faulty.frames != ref.frames)
      fail("a corrupting schedule altered delivered data without detection");
  } else if (rep.fault_diagnosed && rep.counts.detected < 1) {
    fail("a fault diagnostic surfaced but the injector counted no "
         "detections");
  }
  return rep;
}

}  // namespace brickx::conformance
