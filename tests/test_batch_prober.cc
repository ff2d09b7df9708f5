// BatchProber tests: randomized differential sweep of the batched, sharded
// probe kernels against the scalar CombinationProber across shard widths
// (1 word, 4 words, universe-in-one-shard), thread counts (1, 2, 4, 8,
// auto) on a real 8-slot work-stealing pool, and SIMD on/off; degenerate
// frontiers; the probe-statistics contract under prefetch and batching; and
// pinned algorithm outputs whose every record count is re-checked against
// the scalar CombinationProber. Every configuration must be BYTE-identical
// to the scalar oracle — the batch layer's core contract.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "hypre/parallel/task_pool.h"
#include "hypre/algorithms/bias_random.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/partially_combine_all.h"
#include "hypre/algorithms/peps.h"
#include "hypre/batch_prober.h"
#include "test_fixtures.h"

namespace hypre {
namespace core {
namespace {

using reldb::Row;
using reldb::Schema;
using reldb::Value;
using reldb::ValueType;
using testing_fixtures::BuildMiniDblp;
using testing_fixtures::ExpectCountsMatchOracle;
using testing_fixtures::Fingerprint;
using testing_fixtures::MiniBaseQuery;
using testing_fixtures::MiniPreferences;
using testing_fixtures::RenderKeys;
using testing_fixtures::RenderRecords;

// A real work-stealing pool for the parallel matrix entries: the machine
// running the tests may report 1 hardware thread (which would make the
// shared pool run everything inline), so the sweep pins an explicit 8-slot
// pool to genuinely exercise steals.
parallel::TaskPool* TestPool() {
  static parallel::TaskPool pool(7);  // 7 workers + caller = 8 slots
  return &pool;
}

ProbeOptions MakeOptions(size_t shard_words, size_t num_threads) {
  ProbeOptions options;
  options.shard_words = shard_words;
  options.num_threads = num_threads;
  return options;
}

// The shard-width / thread-count / SIMD matrix every differential sweep
// runs: one-word shards (maximum shard count), small shards, and a shard
// wide enough to hold any test universe in one piece; serial, 4-way, and
// 8-way on the test pool; SIMD kernels on and off; plus num_threads = 0
// (auto-detect).
std::vector<ProbeOptions> OptionMatrix() {
  std::vector<ProbeOptions> matrix;
  for (size_t shard_words : {size_t{1}, size_t{4}, size_t{1} << 20}) {
    for (size_t num_threads : {size_t{1}, size_t{4}}) {
      matrix.push_back(MakeOptions(shard_words, num_threads));
    }
    for (bool simd : {true, false}) {
      ProbeOptions options = MakeOptions(shard_words, 8);
      options.pool = TestPool();
      options.simd = simd;
      matrix.push_back(options);
    }
    // Auto-detected thread count on the work-stealing pool.
    ProbeOptions auto_detect = MakeOptions(shard_words, 0);
    auto_detect.pool = TestPool();
    matrix.push_back(auto_detect);
  }
  return matrix;
}

std::string DescribeOptions(const ProbeOptions& options) {
  std::string desc = "shard_words=" + std::to_string(options.shard_words) +
                     " threads=" + std::to_string(options.num_threads);
  if (!options.simd) desc += " scalar-kernels";
  return desc;
}

/// Random papers/tags workload (same shape as the probe-engine fuzz) big
/// enough that the universe spans several bitmap words.
class RandomWorkload {
 public:
  explicit RandomWorkload(uint64_t seed) : rng_(seed) {
    auto papers =
        db_.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                     {"venue", ValueType::kString}}));
    EXPECT_TRUE(papers.ok());
    auto tags = db_.CreateTable(
        "tag", Schema({{"pid", ValueType::kInt64}, {"t", ValueType::kInt64}}));
    EXPECT_TRUE(tags.ok());
    const char* venues[] = {"V1", "V2", "V3", "V4"};
    for (int64_t pid = 0; pid < 300; ++pid) {
      (*papers)->AppendUnchecked(
          Row{Value::Int(pid), Value::Str(venues[rng_.NextBounded(4)])});
      size_t n = 1 + rng_.NextBounded(3);
      std::set<int64_t> used;
      for (size_t k = 0; k < n; ++k) {
        int64_t tag = rng_.NextInt(0, 7);
        if (used.insert(tag).second) {
          (*tags)->AppendUnchecked(Row{Value::Int(pid), Value::Int(tag)});
        }
      }
    }
    EXPECT_TRUE((*papers)->CreateHashIndex("venue").ok());
    EXPECT_TRUE((*tags)->CreateHashIndex("t").ok());
    EXPECT_TRUE((*tags)->CreateHashIndex("pid").ok());

    reldb::Query base;
    base.from = "p";
    base.joins.push_back({"tag", "p.pid", "pid"});
    enhancer_ = std::make_unique<QueryEnhancer>(&db_, base, "p.pid");

    auto add = [&](const std::string& pred, double intensity) {
      auto atom = MakeAtom(pred, intensity);
      ASSERT_TRUE(atom.ok()) << atom.status().ToString();
      prefs_.push_back(std::move(atom.value()));
    };
    add("p.venue='V1'", 0.9);
    add("p.venue='V2'", 0.8);
    add("tag.t=0", 0.7);
    add("tag.t=1", 0.6);
    add("tag.t=2", 0.5);
    add("tag.t=3", 0.4);
    add("p.venue='V3'", 0.3);
    add("tag.t=4", 0.2);
    SortByIntensityDesc(&prefs_);
  }

  /// A random combination of 1..4 members (mixed AND/OR via the §4.6 rule).
  Combination RandomCombination(const Combiner& combiner) {
    size_t n = prefs_.size();
    size_t size = 1 + rng_.NextBounded(4);
    std::set<size_t> members;
    while (members.size() < size) members.insert(rng_.NextBounded(n));
    return combiner.MixedClause(
        std::vector<size_t>(members.begin(), members.end()));
  }

  reldb::Database db_;
  std::unique_ptr<QueryEnhancer> enhancer_;
  std::vector<PreferenceAtom> prefs_;
  Rng rng_;
};

TEST(BatchProber, CountAndEvalMatchScalarAcrossShardWidthsAndThreads) {
  RandomWorkload w(1234);
  Combiner combiner(&w.prefs_);
  CombinationProber scalar(&combiner, &w.enhancer_->probe_engine());

  // Frontier with mixed shapes, duplicates, and the empty combination.
  std::vector<Combination> frontier;
  for (int i = 0; i < 40; ++i) frontier.push_back(w.RandomCombination(combiner));
  frontier.push_back(frontier.front());  // duplicate
  frontier.push_back(Combination{});     // degenerate: no groups

  std::vector<size_t> expected_counts;
  std::vector<KeyBitmap> expected_bits(frontier.size());
  for (size_t f = 0; f < frontier.size(); ++f) {
    auto count = scalar.Count(frontier[f]);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    expected_counts.push_back(count.value());
    ASSERT_TRUE(scalar.BitsInto(frontier[f], &expected_bits[f]).ok());
  }

  for (const ProbeOptions& options : OptionMatrix()) {
    SCOPED_TRACE(DescribeOptions(options));
    BatchProber batch(&scalar, options);
    auto counts = batch.CountBatch(frontier);
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    EXPECT_EQ(*counts, expected_counts);

    std::vector<KeyBitmap> bits;
    ASSERT_TRUE(batch.EvalBatch(frontier, &bits).ok());
    ASSERT_EQ(bits.size(), frontier.size());
    for (size_t f = 0; f < frontier.size(); ++f) {
      EXPECT_EQ(bits[f], expected_bits[f]) << "frontier item " << f;
    }

    // Degenerate: the empty frontier.
    auto empty_counts = batch.CountBatch({});
    ASSERT_TRUE(empty_counts.ok());
    EXPECT_TRUE(empty_counts->empty());
    std::vector<KeyBitmap> empty_bits;
    ASSERT_TRUE(batch.EvalBatch({}, &empty_bits).ok());
    EXPECT_TRUE(empty_bits.empty());
  }
}

TEST(BatchProber, CountExtensionsAndPairsMatchScalarAndCount) {
  RandomWorkload w(99);
  Combiner combiner(&w.prefs_);
  CombinationProber scalar(&combiner, &w.enhancer_->probe_engine());
  size_t n = w.prefs_.size();

  KeyBitmap base;
  ASSERT_TRUE(scalar.BitsInto(w.RandomCombination(combiner), &base).ok());
  std::vector<size_t> candidates;
  for (size_t k = 0; k < n; ++k) candidates.push_back(k);
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }

  for (const ProbeOptions& options : OptionMatrix()) {
    SCOPED_TRACE(DescribeOptions(options));
    BatchProber batch(&scalar, options);

    auto ext = batch.CountExtensions(base, candidates);
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    ASSERT_EQ(ext->size(), candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      auto bits = scalar.PreferenceBits(candidates[c]);
      ASSERT_TRUE(bits.ok());
      EXPECT_EQ((*ext)[c], KeyBitmap::AndCount(base, **bits));
    }
    auto no_ext = batch.CountExtensions(base, {});
    ASSERT_TRUE(no_ext.ok());
    EXPECT_TRUE(no_ext->empty());

    auto pair_counts = batch.CountPairs(pairs);
    ASSERT_TRUE(pair_counts.ok()) << pair_counts.status().ToString();
    ASSERT_EQ(pair_counts->size(), pairs.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
      auto a = scalar.PreferenceBits(pairs[p].first);
      auto b = scalar.PreferenceBits(pairs[p].second);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ((*pair_counts)[p], KeyBitmap::AndCount(**a, **b));
    }
  }
}

TEST(BatchProber, SkewedFrontierByteIdenticalUnderWorkStealing) {
  // Steal-heavy shape: a frontier mixing many cheap single-member
  // combinations with a block of maximum-size ones, so seeded tile ranges
  // have wildly different costs and the pool must rebalance. Counts and
  // bitmaps must stay byte-identical to the scalar path.
  RandomWorkload w(31337);
  Combiner combiner(&w.prefs_);
  CombinationProber scalar(&combiner, &w.enhancer_->probe_engine());
  size_t n = w.prefs_.size();

  std::vector<Combination> frontier;
  std::vector<size_t> all_members;
  for (size_t k = 0; k < n; ++k) all_members.push_back(k);
  for (int rep = 0; rep < 60; ++rep) {
    frontier.push_back(combiner.Single(rep % n));  // cheap: one member
  }
  for (int rep = 0; rep < 12; ++rep) {
    frontier.push_back(combiner.MixedClause(all_members));  // heavy: all 8
  }
  for (int rep = 0; rep < 60; ++rep) {
    frontier.push_back(combiner.Single((rep + 3) % n));
  }

  std::vector<size_t> expected;
  std::vector<KeyBitmap> expected_bits(frontier.size());
  for (size_t f = 0; f < frontier.size(); ++f) {
    auto count = scalar.Count(frontier[f]);
    ASSERT_TRUE(count.ok());
    expected.push_back(count.value());
    ASSERT_TRUE(scalar.BitsInto(frontier[f], &expected_bits[f]).ok());
  }

  for (size_t shard_words : {size_t{1}, size_t{4}}) {
    for (bool simd : {true, false}) {
      ProbeOptions options = MakeOptions(shard_words, 8);
      options.pool = TestPool();
      options.simd = simd;
      SCOPED_TRACE(DescribeOptions(options));
      BatchProber batch(&scalar, options);
      auto counts = batch.CountBatch(frontier);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(*counts, expected);
      std::vector<KeyBitmap> bits;
      ASSERT_TRUE(batch.EvalBatch(frontier, &bits).ok());
      for (size_t f = 0; f < frontier.size(); ++f) {
        ASSERT_EQ(bits[f], expected_bits[f]) << "frontier item " << f;
      }
    }
  }
}

TEST(BatchProber, MoreThreadsThanShardsStaysExact) {
  // Regression for the tail imbalance of the old ceil-division split: with
  // num_threads > num_shards the per-worker quota rounded up, so early
  // workers swallowed everything and later ones got empty ranges. PlanSlots
  // now clamps the slot count to the tile count; counts must stay exact
  // whatever the thread/shard ratio.
  RandomWorkload w(2024);
  Combiner combiner(&w.prefs_);
  CombinationProber scalar(&combiner, &w.enhancer_->probe_engine());

  std::vector<Combination> frontier;
  for (int i = 0; i < 10; ++i) frontier.push_back(w.RandomCombination(combiner));
  std::vector<size_t> expected;
  for (const auto& c : frontier) {
    auto count = scalar.Count(c);
    ASSERT_TRUE(count.ok());
    expected.push_back(count.value());
  }

  // The test universe is a few hundred bits (<= 6 words), so shard_words of
  // {1 << 20, 3, 1} give ~1, 2-3, and 6+ shards respectively.
  for (size_t shard_words : {size_t{1} << 20, size_t{3}, size_t{1}}) {
    for (size_t num_threads : {size_t{2}, size_t{3}, size_t{5}, size_t{8},
                               size_t{16}}) {
      ProbeOptions options = MakeOptions(shard_words, num_threads);
      options.pool = TestPool();
      SCOPED_TRACE(DescribeOptions(options));
      BatchProber batch(&scalar, options);
      auto counts = batch.CountBatch(frontier);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(*counts, expected);
    }
  }
}

TEST(BatchProber, PureAndChainShortcutMatchesMaterializedPath) {
  // The generalized Count shortcut: AND chains of every length must agree
  // with the materializing BitsInto+Count evaluation.
  RandomWorkload w(7);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, &w.enhancer_->probe_engine());
  Combination chain;
  for (size_t len = 1; len <= w.prefs_.size(); ++len) {
    chain = len == 1 ? combiner.Single(0) : combiner.AndExtend(chain, len - 1);
    // Force the chain into single-member groups regardless of attribute
    // keys: AndExtend always appends a new group.
    ASSERT_EQ(chain.groups.size(), len);
    auto fast = prober.Count(chain);
    ASSERT_TRUE(fast.ok());
    KeyBitmap bits;
    ASSERT_TRUE(prober.BitsInto(chain, &bits).ok());
    EXPECT_EQ(fast.value(), bits.Count()) << "chain length " << len;
  }
}

TEST(BatchProber, PrefetchedLeavesMatchOnDemandLeaves) {
  // Two engines over the same data: one bulk-prefetched, one probing leaf
  // by leaf. Every preference bitmap must come out identical.
  reldb::Database db;
  BuildMiniDblp(&db);
  QueryEnhancer prefetched(&db, MiniBaseQuery(), "dblp.pid");
  QueryEnhancer on_demand(&db, MiniBaseQuery(), "dblp.pid");
  std::vector<PreferenceAtom> prefs = MiniPreferences();

  std::vector<reldb::ExprPtr> exprs;
  for (const auto& pref : prefs) exprs.push_back(pref.expr);
  ASSERT_TRUE(prefetched.probe_engine().PrefetchLeaves(exprs).ok());

  for (const auto& pref : prefs) {
    auto a = prefetched.probe_engine().EvalBitmap(pref.expr);
    auto b = on_demand.probe_engine().EvalBitmap(pref.expr);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << pref.predicate;
  }
}

TEST(BatchProber, ProbeStatisticsContract) {
  // Locks the statistics contract from probe_engine.h: one leaf query per
  // distinct leaf (prefetched or not), one cache hit per answered probe.
  reldb::Database db;
  BuildMiniDblp(&db);
  QueryEnhancer enhancer(&db, MiniBaseQuery(), "dblp.pid");
  const ProbeEngine& engine = enhancer.probe_engine();
  std::vector<PreferenceAtom> prefs = MiniPreferences();
  Combiner combiner(&prefs);
  CombinationProber prober(&combiner, &engine);
  BatchProber batch(&prober, MakeOptions(4, 2));

  // Bulk prefetch: 5 preferences = 5 distinct leaves, ONE executor pass but
  // one counted leaf query per leaf; no probes answered yet.
  ASSERT_TRUE(prober.PrefetchAll().ok());
  EXPECT_EQ(engine.num_leaf_queries(), 5u);
  EXPECT_EQ(engine.num_cache_hits(), 0u);
  // Idempotent: nothing new to load.
  ASSERT_TRUE(prober.PrefetchAll().ok());
  EXPECT_EQ(engine.num_leaf_queries(), 5u);

  // A scalar combination probe answers one probe from cache.
  ASSERT_TRUE(prober.Count(combiner.MixedClause({0, 1})).ok());
  EXPECT_EQ(engine.num_cache_hits(), 1u);
  EXPECT_EQ(engine.num_leaf_queries(), 5u);  // no new DB work

  // A batch of M combinations answers M probes.
  std::vector<Combination> frontier = {combiner.MixedClause({0, 1}),
                                       combiner.MixedClause({1, 2, 3}),
                                       combiner.MixedClause({0, 4})};
  ASSERT_TRUE(batch.CountBatch(frontier).ok());
  EXPECT_EQ(engine.num_cache_hits(), 4u);

  // An extension batch answers one probe per candidate.
  KeyBitmap base;
  ASSERT_TRUE(prober.BitsInto(combiner.Single(0), &base).ok());
  ASSERT_TRUE(batch.CountExtensions(base, {1, 2}).ok());
  EXPECT_EQ(engine.num_cache_hits(), 6u);

  // The CountMatching memo hit still counts (PR 1 behavior preserved).
  auto pred = prefs[0].expr;
  ASSERT_TRUE(engine.CountMatching(pred).ok());
  size_t hits_before = engine.num_cache_hits();
  ASSERT_TRUE(engine.CountMatching(pred).ok());
  EXPECT_EQ(engine.num_cache_hits(), hits_before + 1);
  EXPECT_EQ(engine.num_leaf_queries(), 5u);
}

// --- Pinned algorithm outputs ----------------------------------------------
//
// The expected strings were recorded from the scalar and batched probe paths
// (which agreed byte for byte) before the scalar path was removed; every
// record's count is also re-checked against the scalar CombinationProber on
// an independent enhancer. Each output must come out identical under every
// configuration in AlgorithmConfigs().

std::vector<ProbeOptions> AlgorithmConfigs() {
  ProbeOptions stress = MakeOptions(2, 4);  // tiny shards + threads
  stress.pool = TestPool();
  ProbeOptions scalar_kernels;
  scalar_kernels.simd = false;
  return {ProbeOptions{}, stress, scalar_kernels};
}

TEST(PinnedAlgorithmOutputs, PepsOrderAndTopK) {
  RandomWorkload w(42);
  SortByIntensityDesc(&w.prefs_);
  QueryEnhancer oracle(&w.db_, w.enhancer_->base_query(), "p.pid");
  struct Pin {
    PepsMode mode;
    const char* order;
    size_t expansion_probes;
    size_t pairs;
  };
  // Both modes rank the same 25 keys on this workload.
  const char* kTopK =
      "17 131 203 58 70 92 252 218 257 82 168 54 228 1 91 230 245 19 26 60 "
      "104 146 199 30 122";
  const Pin pins[] = {
      {PepsMode::kComplete, "63 records fnv1a=8ff3ae7c684648c9", 74, 25},
      {PepsMode::kApproximate, "24 records fnv1a=e197b7eb8901ac82", 35, 25},
  };
  for (const ProbeOptions& options : AlgorithmConfigs()) {
    SCOPED_TRACE(DescribeOptions(options));
    for (const Pin& pin : pins) {
      SCOPED_TRACE(pin.mode == PepsMode::kComplete ? "complete" : "approx");
      Peps peps(&w.prefs_, w.enhancer_.get(), options);
      auto order = peps.GenerateOrder(pin.mode);
      ASSERT_TRUE(order.ok()) << order.status().ToString();
      ExpectCountsMatchOracle(*order, w.prefs_, oracle);
      EXPECT_EQ(Fingerprint(*order), pin.order);
      EXPECT_EQ(peps.num_expansion_probes(), pin.expansion_probes);
      EXPECT_EQ(peps.pairs().size(), pin.pairs);

      auto top_k = peps.TopK(25, pin.mode);
      ASSERT_TRUE(top_k.ok()) << top_k.status().ToString();
      EXPECT_EQ(RenderKeys(*top_k), kTopK);
    }
  }
}

TEST(PinnedAlgorithmOutputs, ExhaustiveCombineTwoPartially) {
  RandomWorkload w(77);
  QueryEnhancer oracle(&w.db_, w.enhancer_->base_query(), "p.pid");
  for (const ProbeOptions& options : AlgorithmConfigs()) {
    SCOPED_TRACE(DescribeOptions(options));
    auto exhaustive =
        ExhaustiveAndCombinations(w.prefs_, *w.enhancer_, 20, options);
    ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
    ExpectCountsMatchOracle(*exhaustive, w.prefs_, oracle);
    EXPECT_EQ(Fingerprint(*exhaustive), "72 records fnv1a=d959a892cc080ad9");

    auto and_pairs =
        CombineTwo(w.prefs_, *w.enhancer_, CombineSemantics::kAnd, options);
    ASSERT_TRUE(and_pairs.ok()) << and_pairs.status().ToString();
    ExpectCountsMatchOracle(*and_pairs, w.prefs_, oracle);
    EXPECT_EQ(RenderRecords(*and_pairs),
              "0&1:0 0&2:18 0&3:16 0&4:16 0&5:15 0&6:0 0&7:14 1&2:14 1&3:16 "
              "1&4:14 1&5:22 1&6:0 1&7:17 2&3:9 2&4:6 2&5:13 2&6:16 2&7:15 "
              "3&4:3 3&5:8 3&6:16 3&7:11 4&5:8 4&6:15 4&7:11 5&6:8 5&7:11 "
              "6&7:20");

    auto and_or_pairs =
        CombineTwo(w.prefs_, *w.enhancer_, CombineSemantics::kAndOr, options);
    ASSERT_TRUE(and_or_pairs.ok()) << and_or_pairs.status().ToString();
    ExpectCountsMatchOracle(*and_or_pairs, w.prefs_, oracle);
    EXPECT_EQ(RenderRecords(*and_or_pairs),
              "0|1:152 0&2:18 0&3:16 0&4:16 0&5:15 0|6:145 0&7:14 1&2:14 "
              "1&3:16 1&4:14 1&5:22 1|6:143 1&7:17 2|3:125 2|4:117 2|5:126 "
              "2&6:16 2|7:128 3|4:114 3|5:125 3&6:16 3|7:126 4|5:114 4&6:15 "
              "4|7:115 5&6:8 5|7:131 6&7:20");

    auto partial = PartiallyCombineAll(w.prefs_, *w.enhancer_, options);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    ExpectCountsMatchOracle(*partial, w.prefs_, oracle);
    EXPECT_EQ(Fingerprint(*partial), "17 records fnv1a=6ae3a46fd85fb7dd");
  }
}

TEST(PinnedAlgorithmOutputs, BiasRandom) {
  RandomWorkload w(5);
  QueryEnhancer oracle(&w.db_, w.enhancer_->base_query(), "p.pid");
  struct Pin {
    uint64_t seed;
    const char* records;
    size_t valid_checks;
    size_t invalid_checks;
  };
  const Pin pins[] = {
      {1, "0&4&3:3 1&2&5:2 2&0&3:1 3&2&6:1 4&6&3:1 5&6:18 6&2:10 7&0&3:1", 14,
       8},
      {17, "0&4&3:3 1&7&4:2 2&6&5:3 3&4&0:3 4&1:24 5&1:11 6&7&3:1 7&0&2&4:1",
       15, 10},
      {123, "0&7&3:1 1&2&7:2 2&4:8 3&1&4:4 4&0&2:3 5&0&2:1 6&2:10 7&1:15", 13,
       9},
  };
  for (const ProbeOptions& options : AlgorithmConfigs()) {
    SCOPED_TRACE(DescribeOptions(options));
    for (const Pin& pin : pins) {
      SCOPED_TRACE(testing::Message() << "seed=" << pin.seed);
      auto run = BiasRandomSelection(w.prefs_, *w.enhancer_, pin.seed, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectCountsMatchOracle(run->records, w.prefs_, oracle);
      EXPECT_EQ(RenderRecords(run->records), pin.records);
      EXPECT_EQ(run->valid_checks, pin.valid_checks);
      EXPECT_EQ(run->invalid_checks, pin.invalid_checks);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace hypre
