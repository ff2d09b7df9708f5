// Combination tests: mixed AND/OR clause construction, combined intensity,
// and the dissertation's worked examples (§4.6, Example 6 / Table 9).
#include <gtest/gtest.h>

#include "hypre/combination.h"
#include "hypre/intensity.h"
#include "hypre/probe_engine.h"
#include "hypre/ranking.h"
#include "workload/canonical.h"

namespace hypre {
namespace core {
namespace {

std::vector<PreferenceAtom> DealershipPreferences() {
  // Example 6: price 0.8, mileage 0.5, make 0.2.
  std::vector<PreferenceAtom> prefs;
  auto add = [&](const std::string& pred, double intensity) {
    auto atom = MakeAtom(pred, intensity);
    ASSERT_TRUE(atom.ok()) << atom.status().ToString();
    prefs.push_back(std::move(atom.value()));
  };
  add("price BETWEEN 7000 AND 16000", 0.8);
  add("mileage BETWEEN 20000 AND 50000", 0.5);
  add("make IN ('BMW', 'Honda')", 0.2);
  return prefs;
}

TEST(AtomTest, AttributeExtraction) {
  auto atom = MakeAtom("dblp.venue='VLDB' AND year>=2010", 0.5);
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->attributes.size(), 2u);
  EXPECT_TRUE(atom->attributes.count("dblp.venue") > 0);
  EXPECT_TRUE(atom->attributes.count("year") > 0);
  EXPECT_EQ(atom->attribute_key, "dblp.venue|year");
  EXPECT_FALSE(MakeAtom("not valid sql !!!", 0.5).ok());
}

TEST(AtomTest, SortByIntensityDescIsStableAndDeterministic) {
  std::vector<PreferenceAtom> prefs = DealershipPreferences();
  std::reverse(prefs.begin(), prefs.end());
  SortByIntensityDesc(&prefs);
  EXPECT_DOUBLE_EQ(prefs[0].intensity, 0.8);
  EXPECT_DOUBLE_EQ(prefs[1].intensity, 0.5);
  EXPECT_DOUBLE_EQ(prefs[2].intensity, 0.2);
}

TEST(CombinationTest, SingleAndExtendOrInto) {
  std::vector<PreferenceAtom> prefs = DealershipPreferences();
  Combiner combiner(&prefs);
  Combination single = combiner.Single(0);
  EXPECT_EQ(single.NumPredicates(), 1u);
  EXPECT_FALSE(single.HasAnd());
  EXPECT_TRUE(single.ContainsMember(0));
  EXPECT_FALSE(single.ContainsMember(1));

  Combination both = combiner.AndExtend(single, 1);
  EXPECT_EQ(both.NumPredicates(), 2u);
  EXPECT_TRUE(both.HasAnd());
  EXPECT_EQ(both.groups.size(), 2u);

  // OrInto with a distinct attribute appends its own group.
  Combination with_make = combiner.OrInto(both, 2);
  EXPECT_EQ(with_make.groups.size(), 3u);
}

TEST(CombinationTest, OrIntoMergesSameAttribute) {
  std::vector<PreferenceAtom> prefs;
  auto add = [&](const std::string& pred, double intensity) {
    prefs.push_back(MakeAtom(pred, intensity).value());
  };
  add("dblp.venue='A'", 0.6);
  add("dblp.venue='B'", 0.4);
  add("dblp_author.aid=1", 0.5);
  Combiner combiner(&prefs);
  Combination c = combiner.MixedClause({0, 2, 1});
  // venue group holds {0, 1}; author group holds {2}.
  ASSERT_EQ(c.groups.size(), 2u);
  EXPECT_EQ(c.groups[0].members.size(), 2u);
  EXPECT_EQ(c.groups[1].members.size(), 1u);
  EXPECT_EQ(combiner.ToSql(c),
            "(dblp.venue='A' OR dblp.venue='B') AND dblp_author.aid=1");
}

TEST(CombinationTest, BuildExprShape) {
  std::vector<PreferenceAtom> prefs;
  prefs.push_back(MakeAtom("dblp.venue='INFOCOM'", 0.23).value());
  prefs.push_back(MakeAtom("dblp.venue='PODS'", 0.14).value());
  prefs.push_back(MakeAtom("dblp_author.aid=128", 0.19).value());
  prefs.push_back(MakeAtom("dblp_author.aid=116", 0.14).value());
  Combiner combiner(&prefs);
  // The §4.6 rewritten query: (venue OR venue) AND (aid OR aid).
  Combination c = combiner.MixedClause({0, 1, 2, 3});
  EXPECT_EQ(combiner.ToSql(c),
            "(dblp.venue='INFOCOM' OR dblp.venue='PODS') AND "
            "(dblp_author.aid=128 OR dblp_author.aid=116)");
}

TEST(CombinationTest, IntensityMixedClause) {
  std::vector<PreferenceAtom> prefs;
  prefs.push_back(MakeAtom("a=1", 0.6).value());
  prefs.push_back(MakeAtom("a=2", 0.4).value());
  prefs.push_back(MakeAtom("b=1", 0.5).value());
  Combiner combiner(&prefs);
  Combination c = combiner.MixedClause({0, 1, 2});
  // venue-group f_or(0.6, 0.4) = 0.5; AND with 0.5 -> 0.75.
  EXPECT_NEAR(combiner.ComputeIntensity(c), CombineAnd(0.5, 0.5), 1e-12);
}

TEST(CombinationTest, PureAndIntensityMatchesFold) {
  std::vector<PreferenceAtom> prefs = DealershipPreferences();
  Combiner combiner(&prefs);
  Combination c =
      combiner.AndExtend(combiner.AndExtend(combiner.Single(0), 1), 2);
  EXPECT_NEAR(combiner.ComputeIntensity(c), 0.92, 1e-12);
  EXPECT_EQ(c.SortedMembers(), (std::vector<size_t>{0, 1, 2}));
}

TEST(Example6, DealershipRanking) {
  // Table 9: t1 -> 0.92, t2 -> 0.9, t3 -> 0.6.
  reldb::Database db;
  ASSERT_TRUE(workload::BuildDealershipDatabase(&db).ok());
  reldb::Query base;
  base.from = "car";
  ProbeEngine engine(&db, base, "car.id");

  std::vector<PreferenceAtom> prefs = DealershipPreferences();
  auto ranked = ScoreTuplesByPreferences(engine, prefs);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].key.AsString(), "t1");
  EXPECT_NEAR((*ranked)[0].intensity, 0.92, 1e-12);
  EXPECT_EQ((*ranked)[1].key.AsString(), "t2");
  EXPECT_NEAR((*ranked)[1].intensity, 0.9, 1e-12);
  EXPECT_EQ((*ranked)[2].key.AsString(), "t3");
  EXPECT_NEAR((*ranked)[2].intensity, 0.6, 1e-12);
}

}  // namespace
}  // namespace core
}  // namespace hypre
