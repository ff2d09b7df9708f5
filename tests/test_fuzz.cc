// Randomized differential tests ("fuzz-light"):
//  1. random predicate ASTs: executor (push-down + index candidates) vs.
//     brute-force row evaluation;
//  2. parse -> print -> parse fixpoint on randomly generated predicates;
//  3. ProbeEngine's group-level set algebra vs. naive per-key evaluation.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/random.h"
#include "common/string_util.h"
#include "hypre/probe_engine.h"
#include "reldb/executor.h"
#include "sqlparse/parser.h"

namespace hypre {
namespace reldb {
namespace {

/// Builds a random single-table database with mixed-type columns.
void BuildRandomTable(Rng* rng, Database* db, size_t rows) {
  auto table = db->CreateTable("t", Schema({{"id", ValueType::kInt64},
                                            {"cat", ValueType::kString},
                                            {"num", ValueType::kInt64},
                                            {"score", ValueType::kDouble}}));
  ASSERT_TRUE(table.ok());
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(rng->NextBernoulli(0.1)
                      ? Value::Null()
                      : Value::Str(cats[rng->NextBounded(4)]));
    row.push_back(Value::Int(rng->NextInt(0, 30)));
    row.push_back(Value::Real(rng->NextDouble(0.0, 1.0)));
    (*table)->AppendUnchecked(std::move(row));
  }
  ASSERT_TRUE((*table)->CreateHashIndex("cat").ok());
  ASSERT_TRUE((*table)->CreateOrderedIndex("num").ok());
}

/// Generates a random predicate over the random table's columns.
ExprPtr RandomPredicate(Rng* rng, int depth) {
  const char* cats[] = {"a", "b", "c", "d", "zz"};
  if (depth <= 0 || rng->NextBernoulli(0.4)) {
    switch (rng->NextBounded(5)) {
      case 0:
        return Eq(Col("t", "cat"), Lit(Value::Str(cats[rng->NextBounded(5)])));
      case 1: {
        CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kNe};
        return Cmp(ops[rng->NextBounded(5)], Col("t", "num"),
                   Lit(Value::Int(rng->NextInt(0, 30))));
      }
      case 2: {
        int64_t lo = rng->NextInt(0, 20);
        return Between(Col("t", "num"), Value::Int(lo),
                       Value::Int(lo + rng->NextInt(0, 10)));
      }
      case 3:
        return In(Col("t", "cat"),
                  {Value::Str(cats[rng->NextBounded(5)]),
                   Value::Str(cats[rng->NextBounded(5)])});
      default:
        return Cmp(CompareOp::kGe, Col("t", "score"),
                   Lit(Value::Real(rng->NextDouble())));
    }
  }
  switch (rng->NextBounded(3)) {
    case 0:
      return MakeAnd(RandomPredicate(rng, depth - 1),
                     RandomPredicate(rng, depth - 1));
    case 1:
      return MakeOr(RandomPredicate(rng, depth - 1),
                    RandomPredicate(rng, depth - 1));
    default:
      return MakeNot(RandomPredicate(rng, depth - 1));
  }
}

class SingleTableAccessor : public RowAccessor {
 public:
  SingleTableAccessor(const Table* table, RowId row)
      : table_(table), row_(row) {}
  Result<Value> Get(const std::string& table,
                    const std::string& column) const override {
    if (!table.empty() && table != table_->name()) {
      return Status::NotFound("table");
    }
    int col = table_->schema().FindColumn(column);
    if (col < 0) return Status::NotFound("col");
    return table_->row(row_)[static_cast<size_t>(col)];
  }
  void set_row(RowId row) { row_ = row; }

 private:
  const Table* table_;
  RowId row_;
};

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, ExecutorMatchesBruteForce) {
  Rng rng(GetParam());
  Database db;
  BuildRandomTable(&rng, &db, 200);
  Executor exec(&db);
  const Table* table = db.GetTable("t");

  for (int trial = 0; trial < 25; ++trial) {
    ExprPtr predicate = RandomPredicate(&rng, 3);
    Query q;
    q.from = "t";
    q.where = predicate;
    q.select = {"t.id"};
    auto planned = exec.Execute(q);
    ASSERT_TRUE(planned.ok()) << predicate->ToString() << " -> "
                              << planned.status().ToString();
    std::unordered_set<int64_t> actual;
    for (const auto& row : planned->rows) actual.insert(row[0].AsInt());

    SingleTableAccessor accessor(table, 0);
    std::unordered_set<int64_t> expected;
    for (RowId id = 0; id < table->num_rows(); ++id) {
      accessor.set_row(id);
      auto v = Evaluate(*predicate, accessor);
      ASSERT_TRUE(v.ok());
      if (v.value()) expected.insert(table->row(id)[0].AsInt());
    }
    EXPECT_EQ(actual, expected) << predicate->ToString();
  }
}

TEST_P(FuzzSweep, ParsePrintParseFixpoint) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 50; ++trial) {
    ExprPtr original = RandomPredicate(&rng, 4);
    std::string printed = original->ToString();
    auto reparsed = sqlparse::ParsePredicate(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << " -> "
                               << reparsed.status().ToString();
    // The printed form is a fixpoint even when the tree shape normalizes
    // (e.g. nested same-operator nodes re-associate).
    EXPECT_EQ(printed, (*reparsed)->ToString());
    // And semantics are preserved: evaluate both over a random table.
    Database db;
    Rng table_rng(GetParam() * 131 + static_cast<uint64_t>(trial));
    BuildRandomTable(&table_rng, &db, 40);
    const Table* table = db.GetTable("t");
    SingleTableAccessor accessor(table, 0);
    for (RowId id = 0; id < table->num_rows(); ++id) {
      accessor.set_row(id);
      auto v1 = Evaluate(*original, accessor);
      auto v2 = Evaluate(**reparsed, accessor);
      ASSERT_TRUE(v1.ok());
      ASSERT_TRUE(v2.ok());
      EXPECT_EQ(v1.value(), v2.value()) << printed;
    }
  }
}

TEST_P(FuzzSweep, GroupSemanticsMatchNaivePerKeyEvaluation) {
  // Two-table join db: papers with 1-3 tags each; predicates over tags.
  Rng rng(GetParam() + 2000);
  Database db;
  auto papers = db.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                            {"venue", ValueType::kString}}));
  ASSERT_TRUE(papers.ok());
  auto tags = db.CreateTable(
      "tag", Schema({{"pid", ValueType::kInt64}, {"t", ValueType::kInt64}}));
  ASSERT_TRUE(tags.ok());
  const char* venues[] = {"V1", "V2", "V3"};
  std::map<int64_t, std::set<int64_t>> tags_of;
  std::map<int64_t, std::string> venue_of;
  for (int64_t pid = 0; pid < 60; ++pid) {
    std::string venue = venues[rng.NextBounded(3)];
    (*papers)->AppendUnchecked(Row{Value::Int(pid), Value::Str(venue)});
    venue_of[pid] = venue;
    size_t n = 1 + rng.NextBounded(3);
    for (size_t k = 0; k < n; ++k) {
      int64_t tag = rng.NextInt(0, 6);
      if (tags_of[pid].insert(tag).second) {
        (*tags)->AppendUnchecked(Row{Value::Int(pid), Value::Int(tag)});
      }
    }
  }
  ASSERT_TRUE((*papers)->CreateHashIndex("venue").ok());
  ASSERT_TRUE((*tags)->CreateHashIndex("t").ok());
  ASSERT_TRUE((*tags)->CreateHashIndex("pid").ok());

  Query base;
  base.from = "p";
  base.joins.push_back({"tag", "p.pid", "pid"});
  core::ProbeEngine engine(&db, base, "p.pid");

  // Random boolean combinations of leaf predicates venue=X / t=N.
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

  // Naive per-key evaluation of the group semantics: a leaf matches a key
  // iff some joined row satisfies it; booleans combine per key.
  std::function<bool(const Expr&, int64_t)> naive = [&](const Expr& e,
                                                        int64_t pid) -> bool {
    switch (e.kind()) {
      case ExprKind::kAnd: {
        for (const auto& c : static_cast<const NaryExpr&>(e).children()) {
          if (!naive(*c, pid)) return false;
        }
        return true;
      }
      case ExprKind::kOr: {
        for (const auto& c : static_cast<const NaryExpr&>(e).children()) {
          if (naive(*c, pid)) return true;
        }
        return false;
      }
      case ExprKind::kNot:
        return !naive(*static_cast<const NotExpr&>(e).child(), pid);
      default: {
        const auto& cmp = static_cast<const CompareExpr&>(e);
        const auto& ref = static_cast<const ColumnRefExpr&>(*cmp.lhs());
        const auto& lit = static_cast<const LiteralExpr&>(*cmp.rhs());
        if (ref.table() == "p") {
          return venue_of[pid] == lit.value().AsString();
        }
        return tags_of[pid].count(lit.value().AsInt()) > 0;
      }
    }
  };

  for (int trial = 0; trial < 30; ++trial) {
    ExprPtr predicate = random_pred(3);
    auto keys = engine.MatchingKeys(predicate);
    ASSERT_TRUE(keys.ok()) << predicate->ToString();
    std::set<int64_t> actual;
    for (const auto& key : *keys) actual.insert(key.AsInt());
    std::set<int64_t> expected;
    for (int64_t pid = 0; pid < 60; ++pid) {
      if (naive(*predicate, pid)) expected.insert(pid);
    }
    EXPECT_EQ(actual, expected) << predicate->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace reldb
}  // namespace hypre
