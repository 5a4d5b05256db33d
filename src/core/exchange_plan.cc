#include "core/exchange_plan.h"

#include "common/error.h"

namespace brickx {

namespace {
std::byte* at(void* origin) { return static_cast<std::byte*>(origin); }
}  // namespace

void ExchangePlan::check_bindable(Mode want) const {
  BX_CHECK(mode_ != want, want == Mode::Persistent
                              ? "exchange plan already bound to persistent "
                                "requests"
                              : "exchange plan already bound to partitioned "
                                "requests");
  BX_CHECK(mode_ == Mode::AdHoc,
           "persistent and partitioned bindings are mutually exclusive");
  BX_CHECK(!in_flight_, "cannot bind while an exchange is in flight");
}

void ExchangePlan::make_persistent(mpi::Comm& comm, void* origin) {
  check_bindable(Mode::Persistent);
  origin_ = origin;
  preqs_.reserve(recvs_.size() + sends_.size());
  for (const PlanWire& w : recvs_)
    preqs_.push_back(w.type
                         ? comm.recv_init(at(origin), *w.type, w.rank, w.tag)
                         : comm.recv_init(w.buf, w.bytes, w.rank, w.tag));
  for (const PlanWire& w : sends_)
    preqs_.push_back(w.type
                         ? comm.send_init(at(origin), *w.type, w.rank, w.tag)
                         : comm.send_init(w.buf, w.bytes, w.rank, w.tag));
  mode_ = Mode::Persistent;
}

void ExchangePlan::make_partitioned(mpi::Comm& comm) {
  check_bindable(Mode::Partitioned);
  for (const auto* wires : {&recvs_, &sends_})
    for (const PlanWire& w : *wires)
      BX_CHECK(!w.regions.empty(),
               "exchange plan has no partition table (only brick plans can "
               "be partitioned)");
  // Flatten one wire's partitions into `parts`, keyed by its index.
  auto flatten = [](const PlanWire& w, int wire,
                    std::vector<PartSpec>& parts) {
    for (std::size_t i = 0; i < w.regions.size(); ++i)
      parts.push_back(PartSpec{wire, static_cast<int>(i), w.regions[i],
                               w.part_bytes[i]});
  };
  for (const PlanWire& w : recvs_) {
    flatten(w, static_cast<int>(precvs_.size()), recv_parts_);
    precvs_.push_back(
        comm.precv_init(w.buf, w.bytes, w.rank, w.tag, w.part_bytes));
  }
  for (const PlanWire& w : sends_) {
    flatten(w, static_cast<int>(psends_.size()), send_parts_);
    psends_.push_back(
        comm.psend_init(w.buf, w.bytes, w.rank, w.tag, w.part_bytes));
  }
  mode_ = Mode::Partitioned;
}

void ExchangePlan::start(mpi::Comm& comm, void* origin) {
  BX_CHECK(!in_flight_, "previous exchange still in flight");
  // Persistent MPI freezes the buffer address at init; replaying against a
  // different origin would silently exchange the wrong data.
  BX_CHECK(mode_ != Mode::Persistent || origin == origin_,
           "persistent exchange started on a different field than the one "
           "bound by make_persistent");
  in_flight_ = true;
  if (mode_ == Mode::Persistent) {
    for (mpi::Persistent& p : preqs_) p.start();
    return;
  }
  pending_.reserve(recvs_.size() + sends_.size());
  for (const PlanWire& w : recvs_)
    pending_.push_back(w.type ? comm.irecv(at(origin), *w.type, w.rank, w.tag)
                              : comm.irecv(w.buf, w.bytes, w.rank, w.tag));
  for (const PlanWire& w : sends_)
    pending_.push_back(w.type ? comm.isend(at(origin), *w.type, w.rank, w.tag)
                              : comm.isend(w.buf, w.bytes, w.rank, w.tag));
}

void ExchangePlan::finish(mpi::Comm& comm) {
  if (mode_ == Mode::Persistent) {
    for (mpi::Persistent& p : preqs_) p.wait();
  } else {
    comm.waitall(pending_);
  }
  in_flight_ = false;
}

void ExchangePlan::part_start() {
  BX_CHECK(mode_ == Mode::Partitioned,
           "partitioned round on a plan not bound by make_partitioned");
  BX_CHECK(!in_flight_, "previous exchange still in flight");
  in_flight_ = true;
  for (mpi::Partitioned& p : precvs_) p.start();
  for (mpi::Partitioned& p : psends_) p.start();
}

void ExchangePlan::part_finish() {
  for (mpi::Partitioned& p : precvs_) p.wait();
  for (mpi::Partitioned& p : psends_) p.wait();
  in_flight_ = false;
}

std::int64_t ExchangePlan::send_byte_count() const {
  std::int64_t n = 0;
  for (const PlanWire& w : sends_) n += static_cast<std::int64_t>(w.bytes);
  return n;
}

PlanCost ExchangePlan::setup_cost() const {
  PlanCost c = cost_;
  c.messages += static_cast<std::int64_t>(sends_.size() + recvs_.size());
  for (const auto* wires : {&sends_, &recvs_})
    for (const PlanWire& w : *wires)
      if (w.type)
        c.dt_blocks += static_cast<std::int64_t>(w.type->block_count());
  return c;
}

}  // namespace brickx
