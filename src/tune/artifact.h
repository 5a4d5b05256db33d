#pragma once

// The tuned-config artifact: the autotuner's output, a byte-deterministic
// JSON document describing (a) the problem that was tuned, (b) the winning
// (layout, mapping, brick, page-size) choice, (c) the cost the model
// predicts for it, and (d) search telemetry. The writer emits a fixed key
// order with %.17g doubles, so equal artifacts are equal byte-for-byte and
// a replayed artifact reproduces the predicted cost bit-exactly (the
// virtual-clock harness is deterministic). See DESIGN.md §15.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/vec.h"
#include "harness/experiment.h"

namespace brickx::tune {

inline constexpr std::string_view kArtifactSchema = "brickx-tuned-config-v2";

struct TunedArtifact {
  // --- problem: what was tuned (everything else about the Config is the
  // harness default; execute_kernels is false — the tuner evaluates the
  // cost model, tests validate the math).
  std::string machine = "theta-knl";  ///< model::Machine::name
  Vec3 rank_dims{1, 1, 1};
  Vec3 subdomain{8, 8, 8};
  std::int64_t ghost = 8;
  bool use125 = false;
  harness::Method method = harness::Method::MemMap;
  harness::GpuMode gpu = harness::GpuMode::None;
  int timesteps = 8;
  int warmup_exchanges = 1;
  int ranks_per_node = 1;  ///< effective machine.net.ranks_per_node
  netsim::FabricKind fabric = netsim::FabricKind::Flat;
  transport::Kind transport = transport::Kind::Flat;
  bool overlap = false;

  // --- choice: the four tuned levers.
  std::string layout_name = "surface3d";
  /// LayoutSpec order as BitSet::raw() masks; empty = harness default.
  std::vector<std::uint64_t> layout_order;
  netsim::MapKind mapping = netsim::MapKind::Block;
  std::int64_t brick = 8;
  std::size_t page_size = 0;

  // --- prediction under the ContentionFabric cost model.
  double predicted_total_seconds = 0.0;
  double predicted_comm_per_step = 0.0;
  double predicted_gstencils = 0.0;

  // --- search telemetry (all deterministic; wall-clock throughput goes to
  // BENCH_autotune.json, never into the artifact).
  std::int64_t candidates = 0;  ///< configs enumerated
  std::int64_t distinct = 0;    ///< distinct canonical keys among them
  std::uint64_t config_hash = 0;  ///< FNV-1a of the winner's canonical key
};

/// "none" / "cuda-aware" / "unified" / "staged".
const char* gpu_name(harness::GpuMode g);
std::optional<harness::GpuMode> parse_gpu(std::string_view s);
/// Inverse of harness::method_name.
std::optional<harness::Method> parse_method(std::string_view s);
/// Machine preset by Machine::name ("theta-knl" / "summit-v100" /
/// "summit-v100-cumemmap").
std::optional<model::Machine> machine_by_name(std::string_view s);

/// The problem Config the artifact describes, choice NOT applied:
/// hand-picked defaults (surface3d layout, block mapping, the problem's
/// brick/page) — the baseline the self-checks compare against.
harness::Config problem_config(const TunedArtifact& art);

/// Apply the artifact's (layout, mapping, brick, page) choice to `cfg`.
/// This is what `--tuned=FILE` does to every bench config.
void apply_choice(const TunedArtifact& art, harness::Config& cfg);

/// problem_config + apply_choice: the exact Config the tuner evaluated.
harness::Config tuned_config(const TunedArtifact& art);

/// Fill the problem section from a Config (the tuner's input).
TunedArtifact artifact_from(const harness::Config& problem);

/// Byte-deterministic JSON (fixed key order, 2-space indent, %.17g
/// doubles, hex config hash, trailing newline).
std::string to_json(const TunedArtifact& art);

/// Inverse of to_json; nullopt on malformed JSON, unknown enum names, an
/// invalid layout permutation, or a schema-version mismatch. Tolerant of
/// key order and extra whitespace; strtod round-trips the %.17g doubles
/// bit-exactly.
std::optional<TunedArtifact> from_json(std::string_view text);

/// File I/O wrappers (nullopt/false on I/O failure).
std::optional<TunedArtifact> load_artifact(const std::string& path);
bool save_artifact(const TunedArtifact& art, const std::string& path);

}  // namespace brickx::tune
