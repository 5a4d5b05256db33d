#pragma once

// The traced run: replays each deck item's layer calls on a 4-rank
// mpi::Runtime with spans recorded from outside the library, and reports
// per-layer metrics (README.md lists them with the end-to-end metric each
// should move).

#include <cstdint>
#include <string>
#include <vector>

#include "decks.h"
#include "gates.h"
#include "report.h"

namespace perfbench {

/// Writes every span to `trace_out` (when non-empty) as JSON, prints the
/// per-layer self-time table and the paper-contrast table, and returns the
/// per-layer metrics. `seed` is the workload seed.
std::vector<Metric> traced_layers(Workload w, const std::vector<Item>& deck,
                                  const std::vector<TuneProblem>& problems,
                                  const GateOut& gate, std::uint64_t seed,
                                  const std::string& trace_out, Tally& tally);

}  // namespace perfbench
