#pragma once

// Bit-exact comparison of harness Results, shared by the tests that require
// two runs to agree on every reported number (not just within tolerance).

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace brickx::harness {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every Result field except `validated`, as named bit patterns (Stats by
/// count/min/avg/max/sigma).
inline std::vector<std::pair<std::string, std::uint64_t>> timing_bits(
    const Result& r) {
  std::vector<std::pair<std::string, std::uint64_t>> v;
  auto stats = [&](const char* name, const Stats& st) {
    v.emplace_back(std::string(name) + ".count",
                   static_cast<std::uint64_t>(st.count()));
    v.emplace_back(std::string(name) + ".min", bits(st.min()));
    v.emplace_back(std::string(name) + ".avg", bits(st.avg()));
    v.emplace_back(std::string(name) + ".max", bits(st.max()));
    v.emplace_back(std::string(name) + ".sigma", bits(st.sigma()));
  };
  auto num = [&](const char* name, auto x) {
    if constexpr (std::is_floating_point_v<decltype(x)>) {
      v.emplace_back(name, bits(x));
    } else {
      v.emplace_back(name, static_cast<std::uint64_t>(x));
    }
  };
  stats("calc", r.calc);
  stats("pack", r.pack);
  stats("call", r.call);
  stats("wait", r.wait);
  stats("plan_setup", r.plan_setup);
  num("total_seconds", r.total_seconds);
  num("calc_per_step", r.calc_per_step);
  num("comm_per_step", r.comm_per_step);
  num("gstencils", r.gstencils);
  num("msgs_per_rank", r.msgs_per_rank);
  num("wire_bytes_per_rank", r.wire_bytes_per_rank);
  num("payload_bytes_per_rank", r.payload_bytes_per_rank);
  num("padding_percent", r.padding_percent);
  num("msgs_recv_per_rank", r.msgs_recv_per_rank);
  num("bytes_recv_per_rank", r.bytes_recv_per_rank);
  num("max_inflight_reqs", r.max_inflight_reqs);
  num("setup_seconds", r.setup_seconds);
  num("replan_per_step", r.replan_per_step);
  num("plan_builds_per_rank", r.plan_builds_per_rank);
  num("avg_hops", r.avg_hops);
  num("queue_s_per_msg", r.queue_s_per_msg);
  num("max_link_sharing", r.max_link_sharing);
  num("busiest_link_util", r.busiest_link_util);
  num("fabric_msgs", r.fabric_msgs);
  const mpi::FaultCounts& f = r.fault_counts;
  num("faults.messages", f.messages);
  num("faults.delayed", f.delayed);
  num("faults.dropped", f.dropped);
  num("faults.duplicated", f.duplicated);
  num("faults.reordered", f.reordered);
  num("faults.truncated", f.truncated);
  num("faults.corrupted", f.corrupted);
  num("faults.detected", f.detected);
  num("faults.leftover", f.leftover);
  num("msgs_intra_per_rank", r.msgs_intra_per_rank);
  num("msgs_inter_per_rank", r.msgs_inter_per_rank);
  num("bytes_intra_per_rank", r.bytes_intra_per_rank);
  num("bytes_inter_per_rank", r.bytes_inter_per_rank);
  const transport::Stats& t = r.transport_stats;
  num("transport.onnode_msgs", t.onnode_msgs);
  num("transport.onnode_bytes", t.onnode_bytes);
  num("transport.onnode_copies", t.onnode_copies);
  num("transport.agg_frames", t.agg_frames);
  num("transport.agg_submsgs", t.agg_submsgs);
  num("transport.agg_frame_bytes", t.agg_frame_bytes);
  return v;
}

}  // namespace brickx::harness
