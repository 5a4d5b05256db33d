#pragma once

// Workload decks: the configs one benchmark invocation runs, generated from
// the workload name and --seed alone. The simulator only ever sees the
// generated harness::Config values.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"

namespace perfbench {

enum class Workload { Sweep, Tune, Exec };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// One experiment of a deck. On `tune` the config is the tuner's problem
/// (its hand-picked choice); elsewhere it is run as is.
struct Item {
  int id = 0;
  std::string label;
  brickx::harness::Config cfg;
};

/// Every experiment uses a 2x2x1 rank grid: 4 rank threads on a 4-core
/// host. The strata (method x stencil x machine x subdomain shape) are
/// fixed; the seed draws the deck order (and, on `tune`, the layout
/// hill-climb seed), so every seed's deck costs the same.
std::vector<Item> make_deck(Workload w, std::uint64_t seed);

/// The layout hill-climb seed of a `tune` problem: drawn from the workload
/// seed per problem, so one run averages over several hill-climbed layouts.
std::uint64_t hill_climb_seed(std::uint64_t seed, const Item& it);

/// A config the harness rejects (overlap on the Network floor): the
/// benchmark's tests append it to check that a failing operation is
/// counted, not fatal.
Item invalid_item(int id);

/// `cfg` cut to its first result: one exchange batch, no warm-up.
brickx::harness::Config first_result_cut(const brickx::harness::Config& cfg);

/// Simulated stencil updates of one run: global cells x measured steps x
/// fields.
double cell_updates(const brickx::harness::Config& cfg);

/// Ghost-exchange batches of one run (warm-up plus measured).
int exchange_rounds(const brickx::harness::Config& cfg);

}  // namespace perfbench
