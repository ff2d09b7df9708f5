// Tests for the unified enumeration API (api::Session + kAlgorithms).
//
// The load-bearing guarantee: dispatching an algorithm BY NAME through
// Session::Enumerate produces byte-identical records/tuples to calling the
// algorithm's direct entry point on an equivalent engine — for all six
// algorithms, with SIMD and scalar word kernels, across thread counts —
// and those outputs match pinned expectations whose every record count is
// re-checked against the scalar CombinationProber. On top of that: probe
// budgets truncate deterministically at pinned points, streaming sinks see
// exactly the collected output, unknown names fail cleanly, the session's
// engine cache makes repeat requests leaf-query-free, and refresh pins the
// epoch after mutations.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hypre/algorithms/bias_random.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/partially_combine_all.h"
#include "hypre/algorithms/peps.h"
#include "hypre/algorithms/threshold_algorithm.h"
#include "hypre/api/session.h"
#include "test_fixtures.h"

namespace hypre {
namespace api {
namespace {

using core::CombinationRecord;
using core::RankedTuple;
using core::testing_fixtures::BuildMiniDblp;
using core::testing_fixtures::ExpectCountsMatchOracle;
using core::testing_fixtures::MiniBaseQuery;
using core::testing_fixtures::MiniPreferences;
using core::testing_fixtures::RenderKeys;
using core::testing_fixtures::RenderRecords;

void ExpectRecordsEqual(const std::vector<CombinationRecord>& actual,
                        const std::vector<CombinationRecord>& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].predicate_sql, expected[i].predicate_sql)
        << label << " record " << i;
    EXPECT_EQ(actual[i].num_predicates, expected[i].num_predicates)
        << label << " record " << i;
    EXPECT_EQ(actual[i].num_tuples, expected[i].num_tuples)
        << label << " record " << i;
    EXPECT_EQ(actual[i].intensity, expected[i].intensity)
        << label << " record " << i;
    EXPECT_EQ(actual[i].combination.SortedMembers(),
              expected[i].combination.SortedMembers())
        << label << " record " << i;
  }
}

void ExpectTuplesEqual(const std::vector<RankedTuple>& actual,
                       const std::vector<RankedTuple>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].key.Compare(expected[i].key), 0)
        << label << " tuple " << i;
    EXPECT_EQ(actual[i].intensity, expected[i].intensity)
        << label << " tuple " << i;
  }
}

class SessionApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildMiniDblp(&db_);
    session_ = std::make_unique<Session>(&db_);
    prefs_ = MiniPreferences();
  }

  EnumerationRequest MakeRequest(const std::string& algorithm,
                                 const core::ProbeOptions& options =
                                     core::ProbeOptions{}) const {
    EnumerationRequest request;
    request.algorithm = algorithm;
    request.base_query = MiniBaseQuery();
    request.key_column = "dblp.pid";
    request.preferences = prefs_;
    request.probe_options = options;
    return request;
  }

  EnumerationResult Enumerate(const EnumerationRequest& request) {
    auto result = session_->Enumerate(request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).TakeValue();
  }

  reldb::Database db_;
  std::unique_ptr<Session> session_;
  std::vector<core::PreferenceAtom> prefs_;
};

// --- The differential: Session output == direct entry-point output --------

TEST_F(SessionApiTest, ByteIdenticalToDirectCallsAllSixAlgorithms) {
  // Records are pinned in RenderRecords form (groups '&', OR members '|',
  // ":num_tuples"), recorded when the scalar and batched probe paths agreed.
  const std::string kExhaustive =
      "0&1&2:1 0&2&3:1 0&1:2 0&3&4:1 0&2:2 0&3:2 1&2:2 0&4:1 2&3&4:1 0:4 "
      "2&3:2 2&4:1 1:3 3&4:2 2:4 3:3 4:3";
  const std::string kCombineTwoAnd =
      "0&1:2 0&2:2 0&3:2 0&4:1 1&2:2 1&3:0 1&4:0 2&3:2 2&4:1 3&4:2";
  const std::string kCombineTwoAndOr =
      "0&1:2 0|2:6 0&3:2 0|4:6 1&2:2 1|3:6 1&4:0 2&3:2 2|4:6 3&4:2";
  const std::string kPartiallyCombineAll =
      "0:4 0&1:2 0|2&1:3 0&3:2 0|2&1|3:6 0|2|4&1|3:6";
  const std::string kBiasRandom = "0&3:2 1&2&0:1 2&0&1:1 3&0&2:1 4&3&2:1";
  const size_t kBiasRandomValid = 9;
  const size_t kBiasRandomInvalid = 6;
  // [complete, approximate]
  const std::string kPepsOrder[] = {
      "0&1&2:1 0&2&3:1 0&1:2 0&3&4:1 0&2:2 0&3:2 1&2:2 0&4:1 2&3&4:1 2&3:2 "
      "2&4:1 3&4:2",
      "0&1&2:1 0&2&3:1 0&1:2 0&3&4:1 0&2:2 0&3:2 1&2:2 0&4:1"};
  const std::string kPepsTopK = "1 7 2 4 6 3";

  // The oracle engine is never shared with a run under test.
  core::ProbeEngine oracle(&db_, MiniBaseQuery(), "dblp.pid");
  for (bool simd : {true, false}) {
    for (size_t num_threads : {size_t{1}, size_t{3}}) {
      core::ProbeOptions options;
      options.simd = simd;
      options.num_threads = num_threads;
      std::string label = std::string("simd=") + (simd ? "on" : "off") +
                          " threads=" + std::to_string(num_threads);
      // A fresh direct engine per configuration; the session keeps
      // reusing ITS cached engine across all configurations, which is
      // exactly the sharing the equality must survive.
      core::ProbeEngine direct(&db_, MiniBaseQuery(), "dblp.pid");
      // Session == direct, every count == the scalar oracle, output == pin.
      auto check = [&](const std::string& what,
                       const std::vector<CombinationRecord>& session_records,
                       const std::vector<CombinationRecord>& direct_records,
                       const std::string& pin) {
        ExpectRecordsEqual(session_records, direct_records,
                           what + " " + label);
        ExpectCountsMatchOracle(session_records, prefs_, oracle);
        EXPECT_EQ(RenderRecords(session_records), pin) << what << " " << label;
      };

      check("exhaustive", Enumerate(MakeRequest("exhaustive", options)).records,
            *core::ExhaustiveAndCombinations(prefs_, direct, options),
            kExhaustive);

      for (core::CombineSemantics semantics :
           {core::CombineSemantics::kAnd, core::CombineSemantics::kAndOr}) {
        EnumerationRequest request = MakeRequest("combine-two", options);
        request.semantics = semantics;
        check("combine-two", Enumerate(request).records,
              *core::CombineTwo(prefs_, direct, semantics, options),
              semantics == core::CombineSemantics::kAnd ? kCombineTwoAnd
                                                        : kCombineTwoAndOr);
      }

      check("partially-combine-all",
            Enumerate(MakeRequest("partially-combine-all", options)).records,
            *core::PartiallyCombineAll(prefs_, direct, options),
            kPartiallyCombineAll);

      {
        EnumerationRequest request = MakeRequest("bias-random", options);
        request.seed = 7;
        EnumerationResult result = Enumerate(request);
        auto direct_run =
            core::BiasRandomSelection(prefs_, direct, 7, options);
        ASSERT_TRUE(direct_run.ok());
        check("bias-random", result.records, direct_run->records,
              kBiasRandom);
        EXPECT_EQ(result.valid_checks, direct_run->valid_checks) << label;
        EXPECT_EQ(result.invalid_checks, direct_run->invalid_checks)
            << label;
        EXPECT_EQ(result.valid_checks, kBiasRandomValid) << label;
        EXPECT_EQ(result.invalid_checks, kBiasRandomInvalid) << label;
      }

      for (core::PepsMode mode :
           {core::PepsMode::kComplete, core::PepsMode::kApproximate}) {
        EnumerationRequest request = MakeRequest("peps", options);
        request.mode = mode;
        core::Peps peps(&prefs_, &direct, options);
        check("peps order", Enumerate(request).records,
              *peps.GenerateOrder(mode),
              kPepsOrder[mode == core::PepsMode::kComplete ? 0 : 1]);

        request.k = 6;
        core::Peps peps_topk(&prefs_, &direct, options);
        EnumerationResult top_k = Enumerate(request);
        ExpectTuplesEqual(top_k.top_k, *peps_topk.TopK(6, mode),
                          "peps topk " + label);
        EXPECT_EQ(RenderKeys(top_k.top_k), kPepsTopK) << label;
      }

      {
        EnumerationRequest request = MakeRequest("ta", options);
        request.k = 3;
        auto lists = core::BuildGradedLists(direct, prefs_);
        ASSERT_TRUE(lists.ok());
        ExpectTuplesEqual(Enumerate(request).top_k,
                          *core::ThresholdAlgorithmTopK(*lists, 3),
                          "ta k=3 " + label);
        request.k = 0;
        ExpectTuplesEqual(Enumerate(request).top_k,
                          *core::ThresholdAlgorithmTopK(*lists, 0),
                          "ta k=0 " + label);
      }
    }
  }
}

// --- Probe budgets ---------------------------------------------------------

TEST_F(SessionApiTest, BudgetTruncatesCombineTwoDeterministically) {
  EnumerationRequest request = MakeRequest("combine-two");
  EnumerationResult full = Enumerate(request);
  ASSERT_EQ(full.records.size(), 10u);  // C(5,2)
  EXPECT_FALSE(full.truncated);

  request.probe_budget = 4;
  EnumerationResult capped = Enumerate(request);
  EXPECT_TRUE(capped.truncated);
  ASSERT_EQ(capped.records.size(), 4u);
  // The budgeted run's records are the generation-order prefix of the full
  // run, at the pinned truncation point, under any kernel or thread count.
  for (size_t i = 0; i < capped.records.size(); ++i) {
    EXPECT_EQ(capped.records[i].predicate_sql, full.records[i].predicate_sql);
    EXPECT_EQ(capped.records[i].num_tuples, full.records[i].num_tuples);
  }
  EXPECT_EQ(RenderRecords(capped.records), "0&1:2 0&2:2 0&3:2 0&4:1");
  request.probe_options.simd = false;
  request.probe_options.num_threads = 3;
  ExpectRecordsEqual(Enumerate(request).records, capped.records,
                     "combine-two budget scalar-kernels threads=3");

  // A budget exactly covering the run does not truncate.
  request.probe_options = core::ProbeOptions{};
  request.probe_budget = 10;
  EnumerationResult exact = Enumerate(request);
  EXPECT_FALSE(exact.truncated);
  ExpectRecordsEqual(exact.records, full.records, "combine-two exact budget");
}

TEST_F(SessionApiTest, BudgetTruncatesEveryRecordAlgorithmIdentically) {
  // For every record-producing algorithm: a small budget truncates at the
  // pinned point (the budget is enforced at generation granularity), every
  // emitted count matches the scalar oracle, and scalar kernels on three
  // threads truncate identically.
  struct Pin {
    const char* algorithm;
    const char* records;
  };
  const Pin pins[] = {
      {"exhaustive", "0&1:2 0&2:2 0:4 1:3 2:4"},
      {"combine-two", "0&1:2 0&2:2 0&3:2 0&4:1 1&2:2"},
      {"partially-combine-all", "0:4 0&1:2 0|2&1:3 0&3:2 0|2&1|3:6"},
      {"bias-random", "0&3:2"},
      {"peps", "0&1:2 0&2:2 0&3:2 1&2:2 0&4:1"},
  };
  core::ProbeEngine oracle(&db_, MiniBaseQuery(), "dblp.pid");
  for (const Pin& pin : pins) {
    EnumerationRequest request = MakeRequest(pin.algorithm);
    request.seed = 7;
    request.probe_budget = 5;
    EnumerationResult capped = Enumerate(request);
    EXPECT_TRUE(capped.truncated) << pin.algorithm;
    ExpectCountsMatchOracle(capped.records, prefs_, oracle);
    EXPECT_EQ(RenderRecords(capped.records), pin.records) << pin.algorithm;
    request.probe_options.simd = false;
    request.probe_options.num_threads = 3;
    EnumerationResult variant = Enumerate(request);
    EXPECT_TRUE(variant.truncated) << pin.algorithm;
    ExpectRecordsEqual(variant.records, capped.records,
                       std::string(pin.algorithm) + " budget=5");
  }
}

TEST_F(SessionApiTest, BudgetCountsBiasRandomChecks) {
  EnumerationRequest request = MakeRequest("bias-random");
  request.seed = 3;
  EnumerationResult full = Enumerate(request);
  size_t total_checks = full.valid_checks + full.invalid_checks;
  ASSERT_GT(total_checks, 4u);

  request.probe_budget = 4;
  EnumerationResult capped = Enumerate(request);
  EXPECT_TRUE(capped.truncated);
  // Every admitted probe was consumed as a check; none leaked past the cap.
  EXPECT_EQ(capped.valid_checks + capped.invalid_checks, 4u);
}

TEST_F(SessionApiTest, BudgetCapsTaSortedAccessDepth) {
  EnumerationRequest request = MakeRequest("ta");
  request.k = 0;
  EnumerationResult full = Enumerate(request);
  EXPECT_FALSE(full.truncated);
  ASSERT_GT(full.top_k.size(), 2u);

  // 5 atoms build the lists; one sorted-access round remains.
  request.probe_budget = prefs_.size() + 1;
  EnumerationResult capped = Enumerate(request);
  EXPECT_TRUE(capped.truncated);
  EXPECT_LT(capped.top_k.size(), full.top_k.size());

  // Budget smaller than the atom list: even the graded lists are partial.
  request.probe_budget = 2;
  EnumerationResult tiny = Enumerate(request);
  EXPECT_TRUE(tiny.truncated);
}

// --- Streaming sinks -------------------------------------------------------

TEST_F(SessionApiTest, RecordSinkStreamsProbeOrder) {
  std::vector<CombinationRecord> streamed;
  EnumerationRequest request = MakeRequest("partially-combine-all");
  request.record_sink = [&](const CombinationRecord& record) {
    streamed.push_back(record);
  };
  EnumerationResult result = Enumerate(request);
  // Partially-combine-all's result order IS probe order, so the stream
  // matches the collected vector exactly.
  ExpectRecordsEqual(streamed, result.records, "streamed records");
}

TEST_F(SessionApiTest, RecordSinkSeesAllApplicableExhaustiveRecords) {
  std::vector<std::string> streamed;
  EnumerationRequest request = MakeRequest("exhaustive");
  request.record_sink = [&](const CombinationRecord& record) {
    streamed.push_back(record.predicate_sql);
  };
  EnumerationResult result = Enumerate(request);
  // The sink runs in probe order, the vector is intensity-sorted: same
  // multiset.
  ASSERT_EQ(streamed.size(), result.records.size());
  std::vector<std::string> collected;
  for (const auto& record : result.records) {
    collected.push_back(record.predicate_sql);
  }
  std::sort(streamed.begin(), streamed.end());
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(streamed, collected);
}

TEST_F(SessionApiTest, TupleSinkStreamsRankOrder) {
  std::vector<RankedTuple> streamed;
  EnumerationRequest request = MakeRequest("peps");
  request.k = 5;
  request.tuple_sink = [&](const RankedTuple& tuple) {
    streamed.push_back(tuple);
  };
  EnumerationResult result = Enumerate(request);
  ExpectTuplesEqual(streamed, result.top_k, "peps streamed tuples");

  streamed.clear();
  request = MakeRequest("ta");
  request.k = 4;
  request.tuple_sink = [&](const RankedTuple& tuple) {
    streamed.push_back(tuple);
  };
  result = Enumerate(request);
  ExpectTuplesEqual(streamed, result.top_k, "ta streamed tuples");
}

// --- Errors and the registry ----------------------------------------------

TEST_F(SessionApiTest, UnknownAlgorithmNameFails) {
  EnumerationRequest request = MakeRequest("combine-three");
  auto result = session_->Enumerate(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The error names what IS registered.
  EXPECT_NE(result.status().message().find("peps"), std::string::npos)
      << result.status().ToString();
}

TEST_F(SessionApiTest, RegistryListsAllSixAlgorithms) {
  std::vector<std::string> names = session_->Algorithms();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "bias-random", "combine-two", "exhaustive",
                       "partially-combine-all", "peps", "ta"}));
  ASSERT_EQ(kAlgorithms.size(), names.size());
  for (size_t i = 0; i < kAlgorithms.size(); ++i) {
    EXPECT_EQ(kAlgorithms[i].name, names[i]);
    EXPECT_FALSE(kAlgorithms[i].description.empty()) << names[i];
    EXPECT_NE(kAlgorithms[i].run, nullptr) << names[i];
    auto found = FindAlgorithm(names[i]);
    ASSERT_TRUE(found.ok()) << names[i];
    EXPECT_EQ(*found, &kAlgorithms[i]);
  }
}

TEST_F(SessionApiTest, RejectsEmptyQuerySpec) {
  EnumerationRequest request = MakeRequest("peps");
  request.base_query = reldb::Query{};
  EXPECT_FALSE(session_->Enumerate(request).ok());
  request = MakeRequest("peps");
  request.key_column.clear();
  EXPECT_FALSE(session_->Enumerate(request).ok());
}

// --- Session caching, statistics, and epochs -------------------------------

TEST_F(SessionApiTest, CachedEngineMakesRepeatRequestsLeafQueryFree) {
  EnumerationRequest request = MakeRequest("peps");
  EnumerationResult first = Enumerate(request);
  EXPECT_GT(first.stats.num_leaf_queries, 0u);
  EXPECT_EQ(session_->num_cached_engines(), 1u);

  // Same query spec, different algorithm: the leaf cache is shared.
  EnumerationResult second = Enumerate(MakeRequest("combine-two"));
  EXPECT_EQ(second.stats.num_leaf_queries, 0u);
  EXPECT_GT(second.stats.num_cache_hits, 0u);
  EXPECT_EQ(session_->num_cached_engines(), 1u);

  // A different key column is a different engine.
  EnumerationRequest other = MakeRequest("combine-two");
  other.key_column = "dblp.venue";
  Enumerate(other);
  EXPECT_EQ(session_->num_cached_engines(), 2u);
}

TEST_F(SessionApiTest, ProbeStatsReportBatchShape) {
  EnumerationResult batched = Enumerate(MakeRequest("combine-two"));
  EXPECT_GT(batched.stats.num_batches, 0u);
  EXPECT_EQ(batched.stats.num_batched_probes, 10u);  // C(5,2)
  EXPECT_GE(batched.stats.num_shard_passes, batched.stats.num_batches);
  EXPECT_GE(batched.stats.num_cache_hits, batched.stats.num_batched_probes);
}

TEST_F(SessionApiTest, RefreshPinsEpochAfterMutations) {
  EnumerationRequest request = MakeRequest("peps");
  EnumerationResult before = Enumerate(request);
  EXPECT_EQ(before.epoch, 0u);

  // A new V1 paper by author 1 and a deleted paper change the answers.
  reldb::Table* dblp = db_.GetTable("dblp");
  reldb::Table* da = db_.GetTable("dblp_author");
  ASSERT_TRUE(dblp->Append({reldb::Value::Int(9), reldb::Value::Str("V1"),
                            reldb::Value::Int(2009)})
                  .ok());
  ASSERT_TRUE(
      da->Append({reldb::Value::Int(9), reldb::Value::Int(1)}).ok());
  ASSERT_TRUE(dblp->Delete(4).ok());  // pid 5 (V3, author 3) disappears

  EnumerationResult after = Enumerate(request);
  EXPECT_GT(after.epoch, before.epoch);

  // The refreshed session answers match a from-scratch engine on the
  // mutated database.
  core::ProbeEngine fresh(&db_, MiniBaseQuery(), "dblp.pid");
  core::Peps peps(&prefs_, &fresh, core::ProbeOptions{});
  ExpectRecordsEqual(after.records,
                     *peps.GenerateOrder(core::PepsMode::kComplete),
                     "post-mutation peps order");
}

}  // namespace
}  // namespace api
}  // namespace hypre
