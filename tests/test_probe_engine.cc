// ProbeEngine tests: KeyBitmap word-packing, dense-dictionary interning,
// canonical cache keys, and a randomized differential sweep asserting the
// bitmap set algebra matches the legacy unordered_set evaluation on random
// predicate trees (same harness style as test_fuzz.cc).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <unordered_set>

#include "common/random.h"
#include "hypre/key_bitmap.h"
#include "hypre/probe_engine.h"
#include "reldb/executor.h"
#include "sqlparse/parser.h"

namespace hypre {
namespace core {
namespace {

using reldb::Col;
using reldb::Database;
using reldb::Eq;
using reldb::Expr;
using reldb::ExprKind;
using reldb::ExprPtr;
using reldb::Lit;
using reldb::MakeAnd;
using reldb::MakeNot;
using reldb::MakeOr;
using reldb::Row;
using reldb::Schema;
using reldb::Value;
using reldb::ValueHash;
using reldb::ValueType;

ExprPtr Parse(const std::string& text) {
  auto r = sqlparse::ParsePredicate(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : nullptr;
}

// --- KeyBitmap ------------------------------------------------------------

TEST(KeyBitmap, SetTestCountAcrossWordBoundaries) {
  KeyBitmap bits(130);
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_TRUE(bits.None());
  for (size_t i : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) bits.Set(i);
  EXPECT_EQ(bits.Count(), 7u);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(128));
  EXPECT_FALSE(bits.Test(1));
  bits.Reset(63);
  EXPECT_EQ(bits.Count(), 6u);
  EXPECT_FALSE(bits.Test(63));
}

TEST(KeyBitmap, AllSetRespectsTail) {
  KeyBitmap bits(70, /*all_set=*/true);
  EXPECT_EQ(bits.Count(), 70u);
  bits.FlipAll();
  EXPECT_EQ(bits.Count(), 0u);
  bits.FlipAll();
  EXPECT_EQ(bits.Count(), 70u);  // complement never leaks past num_bits
}

TEST(KeyBitmap, SetAlgebra) {
  KeyBitmap a(100);
  KeyBitmap b(100);
  for (size_t i = 0; i < 100; i += 2) a.Set(i);   // evens
  for (size_t i = 0; i < 100; i += 3) b.Set(i);   // multiples of 3
  EXPECT_EQ(KeyBitmap::AndCount(a, b), 17u);      // multiples of 6 in [0,100)
  EXPECT_TRUE(KeyBitmap::Intersects(a, b));

  KeyBitmap u = a;
  u.OrWith(b);
  EXPECT_EQ(u.Count(), 50u + 34u - 17u);
  KeyBitmap i = a;
  i.AndWith(b);
  EXPECT_EQ(i.Count(), 17u);
  KeyBitmap d = a;
  d.AndNotWith(b);
  EXPECT_EQ(d.Count(), 50u - 17u);

  std::vector<uint32_t> ids = i.ToIds();
  ASSERT_FALSE(ids.empty());
  for (size_t k = 0; k + 1 < ids.size(); ++k) EXPECT_LT(ids[k], ids[k + 1]);
  for (uint32_t id : ids) EXPECT_EQ(id % 6, 0u);
}

// --- DenseDictionary ------------------------------------------------------

TEST(DenseDictionary, InternsFirstSeenAndCollapsesNumericEquality) {
  reldb::DenseDictionary dict;
  EXPECT_EQ(dict.Intern(Value::Str("a")), 0u);
  EXPECT_EQ(dict.Intern(Value::Int(2)), 1u);
  EXPECT_EQ(dict.Intern(Value::Str("a")), 0u);
  // Int(2) and Real(2.0) compare equal, so they must share an id (matching
  // DistinctValues' dedup semantics).
  EXPECT_EQ(dict.Intern(Value::Real(2.0)), 1u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Lookup(Value::Str("a")), 0u);
  EXPECT_EQ(dict.Lookup(Value::Str("zz")), reldb::DenseDictionary::kNotFound);
}

// --- Canonical cache keys -------------------------------------------------

TEST(CanonicalKey, CommutativeAndMirroredFormsCollide) {
  auto key = [](const std::string& text) {
    return ProbeEngine::CanonicalKey(*Parse(text));
  };
  // Operand order of commutative AND/OR.
  EXPECT_EQ(key("a.x=1 AND b.y=2"), key("b.y=2 AND a.x=1"));
  EXPECT_EQ(key("a.x=1 OR b.y=2"), key("b.y=2 OR a.x=1"));
  // Associativity (nested same-operator nodes flatten).
  EXPECT_EQ(key("(a.x=1 AND b.y=2) AND c.z=3"),
            key("a.x=1 AND (b.y=2 AND c.z=3)"));
  // Mirrored comparisons.
  EXPECT_EQ(key("a.x > 5"), key("5 < a.x"));
  EXPECT_EQ(key("a.x = 5"), key("5 = a.x"));
  // IN-list order.
  EXPECT_EQ(key("a.x IN (3, 1, 2)"), key("a.x IN (1, 2, 3)"));
  // AND must not collide with OR over the same children.
  EXPECT_NE(key("a.x=1 AND b.y=2"), key("a.x=1 OR b.y=2"));
  // Different trees must not collide.
  EXPECT_NE(key("a.x=1"), key("a.x=2"));
  EXPECT_NE(key("NOT a.x=1"), key("a.x=1"));
}

class ProbeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dblp =
        db_.CreateTable("dblp", Schema({{"pid", ValueType::kInt64},
                                        {"venue", ValueType::kString}}));
    ASSERT_TRUE(dblp.ok());
    auto da = db_.CreateTable(
        "dblp_author",
        Schema({{"pid", ValueType::kInt64}, {"aid", ValueType::kInt64}}));
    ASSERT_TRUE(da.ok());
    const char* venues[] = {"V1", "V1", "V2", "V2", "V3"};
    for (int64_t pid = 1; pid <= 5; ++pid) {
      (*dblp)->AppendUnchecked(
          Row{Value::Int(pid), Value::Str(venues[pid - 1])});
    }
    const std::pair<int64_t, int64_t> links[] = {
        {1, 1}, {1, 2}, {2, 1}, {3, 2}, {3, 3}, {4, 1}, {4, 3}, {5, 3}};
    for (const auto& [pid, aid] : links) {
      (*da)->AppendUnchecked(Row{Value::Int(pid), Value::Int(aid)});
    }
    base_.from = "dblp";
    base_.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  }

  reldb::Database db_;
  reldb::Query base_;
};

TEST_F(ProbeEngineTest, CanonicalizedPredicatesShareCacheEntries) {
  ProbeEngine engine(&db_, base_, "dblp.pid");
  ASSERT_TRUE(
      engine.CountMatching(Parse("dblp.venue='V1' AND dblp_author.aid=1"))
          .ok());
  size_t leaves_after_first = engine.stats().num_leaf_queries;
  EXPECT_EQ(leaves_after_first, 2u);  // one probe per distinct leaf

  // Swapped conjunct order: count cache hit, no new leaf probes.
  auto swapped =
      engine.CountMatching(Parse("dblp_author.aid=1 AND dblp.venue='V1'"));
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(engine.stats().num_leaf_queries, leaves_after_first);
  EXPECT_EQ(engine.stats().num_cache_hits, 1u);

  // A mirrored leaf (`1 = aid`) reuses the cached leaf bitmap even inside a
  // structurally new tree.
  auto mirrored =
      engine.CountMatching(Parse("dblp.venue='V2' OR 1=dblp_author.aid"));
  ASSERT_TRUE(mirrored.ok());
  // Only 'V2' is a new leaf.
  EXPECT_EQ(engine.stats().num_leaf_queries, leaves_after_first + 1);
}

TEST_F(ProbeEngineTest, BitmapHandlesComposeLikeKeySets) {
  ProbeEngine engine(&db_, base_, "dblp.pid");
  auto a1 = engine.EvalBitmap(Parse("dblp_author.aid=1"));
  auto a3 = engine.EvalBitmap(Parse("dblp_author.aid=3"));
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a3.ok());
  // aid=1 -> {1,2,4}; aid=3 -> {3,4,5}; intersection {4}.
  EXPECT_EQ(a1->Count(), 3u);
  EXPECT_EQ(a3->Count(), 3u);
  EXPECT_EQ(KeyBitmap::AndCount(*a1, *a3), 1u);
  KeyBitmap both = *a1;
  both.AndWith(*a3);
  std::vector<Value> keys = engine.KeysOf(both);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].AsInt(), 4);
}

// --- Randomized differential sweep ---------------------------------------
//
// Reference implementation: the legacy unordered_set evaluation that query
// enhancement used before the bitmap engine (leaf probes through
// DistinctValues, hash-set intersection/union/complement).
class HashSetReference {
 public:
  using KeySet = std::unordered_set<Value, ValueHash>;

  HashSetReference(const Database* db, reldb::Query base_query,
                   std::string key_column)
      : executor_(db),
        base_query_(std::move(base_query)),
        key_column_(std::move(key_column)) {}

  Result<KeySet> Universe() {
    HYPRE_ASSIGN_OR_RETURN(std::vector<Value> keys,
                           executor_.DistinctValues(base_query_, key_column_));
    return KeySet(keys.begin(), keys.end());
  }

  Result<KeySet> Eval(const ExprPtr& expr) {
    switch (expr->kind()) {
      case ExprKind::kAnd: {
        const auto& nary = static_cast<const reldb::NaryExpr&>(*expr);
        bool first = true;
        KeySet acc;
        for (const auto& child : nary.children()) {
          HYPRE_ASSIGN_OR_RETURN(KeySet child_set, Eval(child));
          if (first) {
            acc = std::move(child_set);
            first = false;
            continue;
          }
          KeySet next;
          for (const auto& v : acc) {
            if (child_set.count(v) > 0) next.insert(v);
          }
          acc = std::move(next);
        }
        return acc;
      }
      case ExprKind::kOr: {
        const auto& nary = static_cast<const reldb::NaryExpr&>(*expr);
        KeySet acc;
        for (const auto& child : nary.children()) {
          HYPRE_ASSIGN_OR_RETURN(KeySet child_set, Eval(child));
          acc.insert(child_set.begin(), child_set.end());
        }
        return acc;
      }
      case ExprKind::kNot: {
        const auto& n = static_cast<const reldb::NotExpr&>(*expr);
        HYPRE_ASSIGN_OR_RETURN(KeySet child_set, Eval(n.child()));
        HYPRE_ASSIGN_OR_RETURN(KeySet universe, Universe());
        KeySet acc;
        for (const auto& v : universe) {
          if (child_set.count(v) == 0) acc.insert(v);
        }
        return acc;
      }
      default: {
        reldb::Query query = base_query_;
        query.where =
            query.where ? reldb::MakeAnd(query.where, expr) : expr;
        HYPRE_ASSIGN_OR_RETURN(std::vector<Value> keys,
                               executor_.DistinctValues(query, key_column_));
        return KeySet(keys.begin(), keys.end());
      }
    }
  }

 private:
  reldb::Executor executor_;
  reldb::Query base_query_;
  std::string key_column_;
};

class ProbeEngineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProbeEngineFuzz, BitmapAlgebraMatchesHashSetReference) {
  Rng rng(GetParam());
  Database db;
  // Random papers/tags join database (same shape as test_fuzz.cc).
  auto papers = db.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                            {"venue", ValueType::kString}}));
  ASSERT_TRUE(papers.ok());
  auto tags = db.CreateTable(
      "tag", Schema({{"pid", ValueType::kInt64}, {"t", ValueType::kInt64}}));
  ASSERT_TRUE(tags.ok());
  const char* venues[] = {"V1", "V2", "V3"};
  for (int64_t pid = 0; pid < 80; ++pid) {
    (*papers)->AppendUnchecked(
        Row{Value::Int(pid), Value::Str(venues[rng.NextBounded(3)])});
    size_t n = 1 + rng.NextBounded(3);
    std::set<int64_t> used;
    for (size_t k = 0; k < n; ++k) {
      int64_t tag = rng.NextInt(0, 6);
      if (used.insert(tag).second) {
        (*tags)->AppendUnchecked(Row{Value::Int(pid), Value::Int(tag)});
      }
    }
  }
  ASSERT_TRUE((*papers)->CreateHashIndex("venue").ok());
  ASSERT_TRUE((*tags)->CreateHashIndex("t").ok());
  ASSERT_TRUE((*tags)->CreateHashIndex("pid").ok());

  reldb::Query base;
  base.from = "p";
  base.joins.push_back({"tag", "p.pid", "pid"});
  ProbeEngine engine(&db, base, "p.pid");
  HashSetReference reference(&db, base, "p.pid");

  std::function<ExprPtr(int)> random_pred = [&](int depth) -> ExprPtr {
    if (depth <= 0 || rng.NextBernoulli(0.45)) {
      if (rng.NextBernoulli(0.5)) {
        return Eq(Col("p", "venue"),
                  Lit(Value::Str(venues[rng.NextBounded(3)])));
      }
      return Eq(Col("tag", "t"), Lit(Value::Int(rng.NextInt(0, 6))));
    }
    switch (rng.NextBounded(3)) {
      case 0:
        return MakeAnd(random_pred(depth - 1), random_pred(depth - 1));
      case 1:
        return MakeOr(random_pred(depth - 1), random_pred(depth - 1));
      default:
        return MakeNot(random_pred(depth - 1));
    }
  };

  for (int trial = 0; trial < 40; ++trial) {
    ExprPtr predicate = random_pred(4);
    auto expected = reference.Eval(predicate);
    ASSERT_TRUE(expected.ok()) << predicate->ToString();

    auto count = engine.CountMatching(predicate);
    ASSERT_TRUE(count.ok()) << predicate->ToString();
    EXPECT_EQ(count.value(), expected->size()) << predicate->ToString();

    auto keys = engine.MatchingKeys(predicate);
    ASSERT_TRUE(keys.ok()) << predicate->ToString();
    ASSERT_EQ(keys->size(), expected->size()) << predicate->ToString();
    for (size_t i = 0; i < keys->size(); ++i) {
      EXPECT_TRUE(expected->count((*keys)[i]) > 0) << predicate->ToString();
      if (i > 0) {
        // MatchingKeys stays sorted by the Value total order.
        EXPECT_LT((*keys)[i - 1].Compare((*keys)[i]), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeEngineFuzz,
                         ::testing::Values(7, 21, 42, 77, 111, 123));

}  // namespace
}  // namespace core
}  // namespace hypre
