// Tests for Combine-Two, Partially-Combine-All, Bias-Random-Selection, and
// the exhaustive reference enumerator, on the hand-crafted mini-DBLP whose
// pair applicability is known by inspection (see test_fixtures.h).
//
// All runs dispatch BY NAME through the unified enumeration API
// (api::Session::Enumerate) — the same path the shell, the examples, and a
// serving deployment use; one test keeps exercising a direct free-function
// entry point so the compatibility shims stay covered.
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/api/session.h"
#include "hypre/intensity.h"
#include "test_fixtures.h"

namespace hypre {
namespace core {
namespace {

using testing_fixtures::BuildMiniDblp;
using testing_fixtures::MiniBaseQuery;
using testing_fixtures::MiniPreferences;

class AlgorithmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildMiniDblp(&db_);
    session_ = std::make_unique<api::Session>(&db_);
    prefs_ = MiniPreferences();
  }

  /// Dispatches through the registry with the fixture's query spec and
  /// preference list (overridable per call).
  Result<api::EnumerationResult> Run(
      const std::string& algorithm,
      CombineSemantics semantics = CombineSemantics::kAnd,
      const std::vector<PreferenceAtom>* preferences = nullptr,
      uint64_t seed = 0) {
    api::EnumerationRequest request;
    request.algorithm = algorithm;
    request.base_query = MiniBaseQuery();
    request.key_column = "dblp.pid";
    request.preferences = preferences ? *preferences : prefs_;
    request.semantics = semantics;
    request.seed = seed;
    return session_->Enumerate(request);
  }

  std::vector<CombinationRecord> Records(
      const std::string& algorithm,
      CombineSemantics semantics = CombineSemantics::kAnd,
      const std::vector<PreferenceAtom>* preferences = nullptr,
      uint64_t seed = 0) {
    auto result = Run(algorithm, semantics, preferences, seed);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result->records);
  }

  reldb::Database db_;
  std::unique_ptr<api::Session> session_;
  std::vector<PreferenceAtom> prefs_;
};

TEST_F(AlgorithmsTest, CombineTwoAndEmitsAllPairs) {
  auto records = Records("combine-two");
  EXPECT_EQ(records.size(), 10u);  // C(5,2)
  for (const auto& r : records) {
    EXPECT_EQ(r.num_predicates, 2u);
  }
  // Venue-venue AND combinations are inapplicable by construction.
  size_t empty = 0;
  for (const auto& r : records) {
    if (!r.applicable()) ++empty;
  }
  EXPECT_GE(empty, 1u);  // at least V1 AND V2
}

TEST_F(AlgorithmsTest, CombineTwoAndOrRescuesSameAttributePairs) {
  auto and_records = Records("combine-two", CombineSemantics::kAnd);
  auto andor_records = Records("combine-two", CombineSemantics::kAndOr);
  ASSERT_EQ(and_records.size(), andor_records.size());
  // Same-attribute pairs: AND gives 0 tuples, OR gives the union.
  for (size_t i = 0; i < and_records.size(); ++i) {
    const auto& a = and_records[i];
    const auto& o = andor_records[i];
    if (a.predicate_sql.find("venue") != std::string::npos &&
        a.predicate_sql.find("AND") != std::string::npos &&
        a.predicate_sql.find("aid") == std::string::npos) {
      EXPECT_EQ(a.num_tuples, 0u) << a.predicate_sql;
      EXPECT_GT(o.num_tuples, 0u) << o.predicate_sql;
      // OR uses the reserved combination: intensity strictly below AND's.
      EXPECT_LT(o.intensity, a.intensity);
    }
  }
}

TEST_F(AlgorithmsTest, CombineTwoAndIntensityExceedsComponents) {
  auto records = Records("combine-two");
  // Every AND pair's combined intensity is >= both member intensities
  // (inflationary behavior drives the §7.3 observation that pair order !=
  // single-preference order).
  for (const auto& r : records) {
    for (size_t member : r.combination.SortedMembers()) {
      EXPECT_GE(r.intensity + 1e-12, prefs_[member].intensity)
          << r.predicate_sql;
    }
  }
}

TEST_F(AlgorithmsTest, CombineTwoOrderingObservation) {
  // §7.3's headline: combining pref[0] with a LATER preference can beat
  // combining it with an earlier one. aid=1&aid=3 (applicable) has higher
  // combined intensity than aid=1&V2 pair ordering would suggest; verify
  // that the applicable-pair ranking is not the intensity-sorted pair order.
  auto records = Records("combine-two");
  std::vector<const CombinationRecord*> applicable;
  for (const auto& r : records) {
    if (r.applicable()) applicable.push_back(&r);
  }
  ASSERT_GE(applicable.size(), 2u);
  bool found_inversion = false;
  for (size_t i = 0; i + 1 < applicable.size(); ++i) {
    if (applicable[i]->intensity < applicable[i + 1]->intensity) {
      found_inversion = true;
      break;
    }
  }
  EXPECT_TRUE(found_inversion)
      << "generation order should not equal intensity order";
}

TEST_F(AlgorithmsTest, CombineTwoDirectShimMatchesSession) {
  // The free-function entry point is kept as a compatibility shim; its
  // output must stay identical to registry dispatch.
  ProbeEngine engine(&db_, MiniBaseQuery(), "dblp.pid");
  auto direct = CombineTwo(prefs_, engine, CombineSemantics::kAnd);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto via_session = Records("combine-two");
  ASSERT_EQ(direct->size(), via_session.size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*direct)[i].predicate_sql, via_session[i].predicate_sql);
    EXPECT_EQ((*direct)[i].num_tuples, via_session[i].num_tuples);
    EXPECT_EQ((*direct)[i].intensity, via_session[i].intensity);
  }
}

TEST_F(AlgorithmsTest, PartiallyCombineAllTrace) {
  auto records = Records("partially-combine-all");
  ASSERT_FALSE(records.empty());
  // First record is the single top preference.
  EXPECT_EQ(records[0].num_predicates, 1u);
  EXPECT_EQ(records[0].predicate_sql, "dblp_author.aid=1");
  // Second preference (V1) is a new attribute: ANDed onto the first.
  EXPECT_EQ(records[1].num_predicates, 2u);
  EXPECT_EQ(records[1].predicate_sql,
            "dblp_author.aid=1 AND dblp.venue='V1'");
  // AND combinations carry higher intensity than their components.
  EXPECT_GT(records[1].intensity, records[0].intensity);
  // Combination sizes never exceed the preference count.
  for (const auto& r : records) {
    EXPECT_LE(r.num_predicates, prefs_.size());
    EXPECT_GE(r.num_predicates, 1u);
  }
}

TEST_F(AlgorithmsTest, PartiallyCombineAllOrIntoLastGroup) {
  // With only same-attribute preferences the algorithm degenerates to a
  // growing OR chain (the §5.3.2 best case [1]).
  std::vector<PreferenceAtom> venues;
  venues.push_back(MakeAtom("dblp.venue='V1'", 0.5).value());
  venues.push_back(MakeAtom("dblp.venue='V2'", 0.3).value());
  venues.push_back(MakeAtom("dblp.venue='V3'", 0.1).value());
  auto records =
      Records("partially-combine-all", CombineSemantics::kAnd, &venues);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].predicate_sql,
            "dblp.venue='V1' OR dblp.venue='V2'");
  EXPECT_EQ(records[2].predicate_sql,
            "dblp.venue='V1' OR dblp.venue='V2' OR dblp.venue='V3'");
  // OR keeps results growing while intensity shrinks.
  EXPECT_GT(records[2].num_tuples, records[0].num_tuples);
  EXPECT_LT(records[2].intensity, records[0].intensity);
}

TEST_F(AlgorithmsTest, BiasRandomDeterministicPerSeed) {
  auto a = Run("bias-random", CombineSemantics::kAnd, nullptr, 7);
  auto b = Run("bias-random", CombineSemantics::kAnd, nullptr, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->valid_checks, b->valid_checks);
  EXPECT_EQ(a->invalid_checks, b->invalid_checks);
  ASSERT_EQ(a->records.size(), b->records.size());
  for (size_t i = 0; i < a->records.size(); ++i) {
    EXPECT_EQ(a->records[i].predicate_sql, b->records[i].predicate_sql);
  }
}

TEST_F(AlgorithmsTest, BiasRandomRecordsAreApplicable) {
  auto result = Run("bias-random", CombineSemantics::kAnd, nullptr, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->records.empty());
  for (const auto& r : result->records) {
    EXPECT_GT(r.num_tuples, 0u) << r.predicate_sql;
    EXPECT_GE(r.num_predicates, 2u);
  }
  // Probes happened, and some of them failed (the Fig. 35/36 point).
  EXPECT_GT(result->valid_checks + result->invalid_checks, 0u);
  EXPECT_GT(result->invalid_checks, 0u);
}

TEST_F(AlgorithmsTest, ExhaustiveMatchesManualApplicability) {
  auto records = Records("exhaustive");
  // Applicable sets (by inspection, see fixture comment):
  //  singles: 5
  //  pairs: a1&a2 {1,7}, a1&a3 {4}, a2&a3 {3}, V1&a1 {1,2}, V1&a2 {1,6},
  //         V2&a1 {4,7}, V2&a2 {3,7}, V2&a3 {3,4}  -> 8
  //  triples: V1&a1&a2 {1}, V2&a1&a2 {7}, V2&a1&a3 {4}, V2&a2&a3 {3} -> 4
  //  (a1&a2&a3 empty; venue pairs empty)
  EXPECT_EQ(records.size(), 5u + 8u + 4u);
  // Descending intensity.
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_GE(records[i].intensity, records[i + 1].intensity);
  }
}

TEST_F(AlgorithmsTest, ExhaustiveGuardsAgainstBlowup) {
  std::vector<PreferenceAtom> many;
  for (int i = 0; i < 25; ++i) {
    many.push_back(MakeAtom(StringFormat("dblp_author.aid=%d", i), 0.1).value());
  }
  EXPECT_FALSE(Run("exhaustive", CombineSemantics::kAnd, &many).ok());
}

}  // namespace
}  // namespace core
}  // namespace hypre
