// Tests for the joint autotuner (src/tune): canonical-key soundness, the
// memo cache's serialize-and-compare collision safety (with the unsafe
// hash-trusting mode demonstrated for contrast), bit-exact artifact replay,
// the tuned-beats-hand-picked guarantee, thread-count invariance of the
// emitted artifact bytes, and replay of the committed tuned_config.json.

#include <gtest/gtest.h>

#include <string>

#include "tune/tuner.h"

namespace brickx::tune {
namespace {

/// A deliberately small tuned problem: 2 ranks, 16^3 subdomain, dragonfly
/// fabric so the mapping axis stays in the space. Search space: 3 layouts
/// x 5 mappings x 2 bricks x 3 pages = 90 candidates, each a 2-rank
/// virtual-clock run — fast enough to tune several times per test binary.
harness::Config small_problem() {
  harness::Config cfg;
  cfg.machine = model::theta();
  cfg.machine.net.ranks_per_node = 2;
  cfg.rank_dims = {2, 1, 1};
  cfg.subdomain = {16, 16, 16};
  cfg.brick = 8;
  cfg.ghost = 8;
  cfg.method = harness::Method::MemMap;
  cfg.timesteps = 2;
  cfg.warmup_exchanges = 1;
  cfg.execute_kernels = false;
  cfg.fabric = netsim::FabricKind::Dragonfly;
  return cfg;
}

// -------------------------------------------------------- canonical key ----

TEST(CanonicalKey, DistinguishesEveryTunedLever) {
  const harness::Config base = small_problem();
  const std::string k = canonical_key(base);

  harness::Config c = base;
  c.brick = 4;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.page_size = 16384;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.mapping = netsim::MapKind::Rcb;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.layout = lexicographic_layout(3);
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.fabric = netsim::FabricKind::FatTree;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.method = harness::Method::Layout;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.machine.net.ranks_per_node = 1;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.subdomain = {16, 16, 32};
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.timesteps = 3;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.overlap = true;
  EXPECT_NE(canonical_key(c), k);
  c = base;
  c.transport = transport::Kind::Shm;
  EXPECT_NE(canonical_key(c), k);

  // Two layouts with different permutations serialize differently even
  // though both are "set".
  harness::Config a = base, b = base;
  a.layout = surface3d();
  b.layout = lexicographic_layout(3);
  EXPECT_NE(canonical_key(a), canonical_key(b));
  // And equality is preserved: same Config, same key.
  EXPECT_EQ(canonical_key(base), canonical_key(small_problem()));
}

// ----------------------------------------------------------- memo cache ----

/// Two distinct canonical-ish strings landing in the same masked bucket.
/// With hash_bits = 1 there are only two buckets, so among any three
/// distinct keys two must collide.
std::pair<std::string, std::string> colliding_pair(int hash_bits) {
  const std::uint64_t mask = (1ull << hash_bits) - 1;
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 64; ++i)
    keys.push_back("config-variant-" + std::to_string(i));
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      if ((fnv1a(keys[i]) & mask) == (fnv1a(keys[j]) & mask))
        return {keys[i], keys[j]};
  ADD_FAILURE() << "no colliding pair found";
  return {"", ""};
}

TEST(EvalCache, VerifiedModeSurvivesForcedHashCollisionsExactly) {
  // hash_bits = 1: every second key collides. The serialize-and-compare
  // chain must keep each key's evaluation exact and count the collisions
  // instead of aliasing.
  EvalCache cache(/*hash_bits=*/1);
  const auto [ka, kb] = colliding_pair(1);
  const Evaluation ea{1.0, 0.25, 10.0};
  const Evaluation eb{2.0, 0.50, 20.0};
  cache.store(ka, ea);
  cache.store(kb, eb);
  const auto got_a = cache.lookup(ka);
  const auto got_b = cache.lookup(kb);
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(*got_a, ea);
  EXPECT_EQ(*got_b, eb);
  // The kb store probed a bucket already holding ka — a detected,
  // chained collision, never a silent merge.
  EXPECT_GT(cache.stats().hits, 0);
  const auto miss = cache.lookup("a-third-key-entirely");
  EXPECT_FALSE(miss.has_value());
}

TEST(EvalCache, CollisionCounterDetectsBucketConflicts) {
  EvalCache cache(/*hash_bits=*/1);
  const auto [ka, kb] = colliding_pair(1);
  cache.store(ka, Evaluation{});
  (void)cache.lookup(kb);  // occupied bucket, different key
  EXPECT_EQ(cache.stats().collisions, 1);
  EXPECT_EQ(cache.stats().hits, 0);
}

// ---------------------------------------------------------------- tune ----

TEST(Tune, MemoizedRetuneIsBitIdenticalAndEvaluationFree) {
  const harness::Config problem = small_problem();
  const SearchSpace space = SearchSpace::standard(problem, 200);
  EvalCache cache;
  const TuneResult cold = tune(problem, space, 2, &cache);
  EXPECT_EQ(cold.evaluated, cold.distinct);  // every distinct key ran once
  const TuneResult warm = tune(problem, space, 2, &cache);
  EXPECT_EQ(warm.evaluated, 0);
  EXPECT_EQ(warm.best, cold.best);
  EXPECT_EQ(to_json(warm.artifact), to_json(cold.artifact));
}

TEST(Tune, TunedMeetsOrBeatsTheHandPickedBaseline) {
  const harness::Config problem = small_problem();
  const harness::Result hand = harness::run(problem);
  const TuneResult res =
      tune(problem, SearchSpace::standard(problem, 200), 2);
  EXPECT_LE(res.best.total_seconds, hand.total_seconds);
}

TEST(Tune, ArtifactReplayReproducesThePredictionBitExactly) {
  const harness::Config problem = small_problem();
  const TuneResult res =
      tune(problem, SearchSpace::standard(problem, 200), 2);
  const harness::Result replay = harness::run(tuned_config(res.artifact));
  EXPECT_EQ(replay.total_seconds, res.artifact.predicted_total_seconds);
  EXPECT_EQ(replay.comm_per_step, res.artifact.predicted_comm_per_step);
  EXPECT_EQ(replay.gstencils, res.artifact.predicted_gstencils);
}

TEST(Tune, ArtifactBytesAreInvariantUnderTheWorkerThreadCount) {
  const harness::Config problem = small_problem();
  const SearchSpace space = SearchSpace::standard(problem, 200);
  const TuneResult one = tune(problem, space, 1);
  const TuneResult four = tune(problem, space, 4);
  EXPECT_EQ(one.best_index, four.best_index);
  EXPECT_EQ(to_json(one.artifact), to_json(four.artifact));
}

// ------------------------------------------------------------- artifact ----

TEST(Artifact, JsonRoundTripsByteExactly) {
  const harness::Config problem = small_problem();
  const TuneResult res =
      tune(problem, SearchSpace::standard(problem, 200), 2);
  const std::string json = to_json(res.artifact);
  const auto back = from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(to_json(*back), json);
  EXPECT_EQ(back->config_hash, res.artifact.config_hash);
}

TEST(Artifact, ParserRejectsCorruptDocuments) {
  const harness::Config problem = small_problem();
  const TunedArtifact art = artifact_from(problem);
  const std::string good = to_json(art);
  EXPECT_TRUE(from_json(good).has_value());
  EXPECT_FALSE(from_json("").has_value());
  EXPECT_FALSE(from_json("{").has_value());
  // Wrong schema version.
  {
    std::string bad = good;
    const auto at = bad.find("brickx-tuned-config-v1");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 22, "brickx-tuned-config-v9");
    EXPECT_FALSE(from_json(bad).has_value());
  }
  // Unknown mapping name.
  {
    std::string bad = good;
    const auto at = bad.find("\"block\"");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 7, "\"blorp\"");
    EXPECT_FALSE(from_json(bad).has_value());
  }
}

TEST(Artifact, CommittedArtifactReplaysItsPredictionExactly) {
  // tests/data/tuned_config.json is a real brickx_tune output committed to
  // the repo; the cost model must keep reproducing its recorded prediction
  // bit-for-bit, or the artifact (and the committed goldens) are stale.
  const auto art =
      load_artifact(std::string(BRICKX_TESTDATA_DIR) + "/tuned_config.json");
  ASSERT_TRUE(art.has_value());
  EXPECT_EQ(art->candidates, art->distinct);
  const harness::Result replay = harness::run(tuned_config(*art));
  EXPECT_EQ(replay.total_seconds, art->predicted_total_seconds);
  EXPECT_EQ(replay.comm_per_step, art->predicted_comm_per_step);
  EXPECT_EQ(replay.gstencils, art->predicted_gstencils);
  // And the hand-picked baseline for the same problem is still no better.
  const harness::Result hand = harness::run(problem_config(*art));
  EXPECT_LE(art->predicted_total_seconds, hand.total_seconds);
}

}  // namespace
}  // namespace brickx::tune
