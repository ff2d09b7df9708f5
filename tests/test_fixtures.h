// Shared hand-crafted mini-DBLP fixture for the algorithm tests.
//
// Papers and author links are chosen so that pair applicability is known by
// inspection:
//   dblp:        pid 1..8, venues V1 {1,2,6}, V2 {3,4,7}, V3 {5,8}
//   dblp_author: 1:{a1,a2} 2:{a1} 3:{a2,a3} 4:{a1,a3} 5:{a3} 6:{a2}
//                7:{a1,a2} 8:{a4}
// Hence:
//   V1 AND V2          -> empty      (venues are exclusive)
//   aid=1 AND aid=2    -> {1, 7}
//   aid=1 AND aid=3    -> {4}
//   aid=2 AND aid=3    -> {3}
//   aid=1 AND aid=2 AND aid=3 -> empty
//   V1 AND aid=1       -> {1, 2}
//   V2 AND aid=3       -> {3, 4}
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "hypre/algorithms/common.h"
#include "hypre/combination.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "reldb/database.h"

namespace hypre {
namespace core {
namespace testing_fixtures {

inline void BuildMiniDblp(reldb::Database* db) {
  using reldb::Row;
  using reldb::Schema;
  using reldb::Value;
  using reldb::ValueType;
  auto dblp = db->CreateTable("dblp", Schema({{"pid", ValueType::kInt64},
                                              {"venue", ValueType::kString},
                                              {"year", ValueType::kInt64}}));
  ASSERT_TRUE(dblp.ok());
  struct P {
    int64_t pid;
    const char* venue;
    int64_t year;
  };
  const P papers[] = {{1, "V1", 2001}, {2, "V1", 2002}, {3, "V2", 2003},
                      {4, "V2", 2004}, {5, "V3", 2005}, {6, "V1", 2006},
                      {7, "V2", 2007}, {8, "V3", 2008}};
  for (const auto& p : papers) {
    (*dblp)->AppendUnchecked(
        Row{Value::Int(p.pid), Value::Str(p.venue), Value::Int(p.year)});
  }
  ASSERT_TRUE((*dblp)->CreateHashIndex("venue").ok());
  ASSERT_TRUE((*dblp)->CreateHashIndex("pid").ok());

  auto da = db->CreateTable(
      "dblp_author",
      Schema({{"pid", ValueType::kInt64}, {"aid", ValueType::kInt64}}));
  ASSERT_TRUE(da.ok());
  const std::pair<int64_t, int64_t> links[] = {
      {1, 1}, {1, 2}, {2, 1}, {3, 2}, {3, 3}, {4, 1},
      {4, 3}, {5, 3}, {6, 2}, {7, 1}, {7, 2}, {8, 4}};
  for (const auto& [pid, aid] : links) {
    (*da)->AppendUnchecked(Row{Value::Int(pid), Value::Int(aid)});
  }
  ASSERT_TRUE((*da)->CreateHashIndex("pid").ok());
  ASSERT_TRUE((*da)->CreateHashIndex("aid").ok());
}

/// The dissertation's base query: dblp JOIN dblp_author, keys = dblp.pid.
inline reldb::Query MiniBaseQuery() {
  reldb::Query q;
  q.from = "dblp";
  q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  return q;
}

/// Preferences sorted descending by intensity:
/// aid=1 (0.6), V1 (0.5), aid=2 (0.4), V2 (0.3), aid=3 (0.2).
inline std::vector<PreferenceAtom> MiniPreferences() {
  std::vector<PreferenceAtom> prefs;
  auto add = [&](const std::string& pred, double intensity) {
    auto atom = MakeAtom(pred, intensity);
    EXPECT_TRUE(atom.ok()) << atom.status().ToString();
    if (atom.ok()) prefs.push_back(std::move(atom.value()));
  };
  add("dblp_author.aid=1", 0.6);
  add("dblp.venue='V1'", 0.5);
  add("dblp_author.aid=2", 0.4);
  add("dblp.venue='V2'", 0.3);
  add("dblp_author.aid=3", 0.2);
  SortByIntensityDesc(&prefs);
  return prefs;
}

/// Canonical text of an enumerator's output, one token per record in output
/// order: the combination's groups joined by '&', each group's members (in
/// insertion order) joined by '|', then ':' and num_tuples. It pins
/// membership, AND/OR structure, order and counts; intensities are implied
/// by the members.
inline std::string RenderRecords(
    const std::vector<CombinationRecord>& records) {
  std::string out;
  for (const CombinationRecord& record : records) {
    if (!out.empty()) out += ' ';
    for (size_t g = 0; g < record.combination.groups.size(); ++g) {
      if (g > 0) out += '&';
      const auto& members = record.combination.groups[g].members;
      for (size_t m = 0; m < members.size(); ++m) {
        if (m > 0) out += '|';
        out += std::to_string(members[m]);
      }
    }
    out += ':';
    out += std::to_string(record.num_tuples);
  }
  return out;
}

/// Ranked keys in rank order, space-separated.
inline std::string RenderKeys(const std::vector<RankedTuple>& tuples) {
  std::string out;
  for (const RankedTuple& tuple : tuples) {
    if (!out.empty()) out += ' ';
    out += tuple.key.ToString();
  }
  return out;
}

/// Compact pin for outputs too long to spell out: the record count and the
/// 64-bit FNV-1a hash of RenderRecords.
inline std::string Fingerprint(const std::vector<CombinationRecord>& records) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : RenderRecords(records)) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu records fnv1a=%016llx", records.size(),
                static_cast<unsigned long long>(hash));
  return buf;
}

/// The scalar-oracle check every enumerator output must pass: each emitted
/// record's num_tuples equals CombinationProber::Count of its combination,
/// probed one at a time over `engine` (which the caller does not share
/// with the run under test).
inline void ExpectCountsMatchOracle(
    const std::vector<CombinationRecord>& records,
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine) {
  Combiner combiner(&preferences);
  CombinationProber oracle(&combiner, &engine);
  for (size_t i = 0; i < records.size(); ++i) {
    auto count = oracle.Count(records[i].combination);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(records[i].num_tuples, *count)
        << "record " << i << " " << records[i].predicate_sql;
  }
}

}  // namespace testing_fixtures
}  // namespace core
}  // namespace hypre
