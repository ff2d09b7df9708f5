// Shared setup for the experiment-reproduction benches.
//
// Every bench reproduces one table or figure of the dissertation's
// evaluation (see DESIGN.md's per-experiment index). They share one
// synthetic-DBLP workload; HYPRE_SCALE (positive integer, default 1)
// multiplies its size.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypre/hypre_graph.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "reldb/database.h"
#include "workload/dblp_generator.h"
#include "workload/preference_extraction.h"

namespace hypre {
namespace bench {

inline void Die(const Status& st) {
  std::fprintf(stderr, "bench setup failed: %s\n", st.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).TakeValue();
}

inline size_t EnvScale() {
  const char* raw = std::getenv("HYPRE_SCALE");
  if (raw == nullptr) return 1;
  long v = std::strtol(raw, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : 1;
}

/// The default workload shared by the benches: scaled synthetic DBLP plus
/// the §6.2 extraction and two focal users analogous to the dissertation's
/// uid=2 (busiest profile) and uid=38437 (mid-size profile).
struct Workload {
  reldb::Database db;
  workload::DblpStats stats;
  workload::ExtractedPreferences prefs;
  core::UserId user_a = 0;  // busiest profile
  core::UserId user_b = 0;  // mid-size profile

  static workload::DblpConfig DefaultConfig() {
    workload::DblpConfig config;
    config.num_papers = 20000 * EnvScale();
    config.num_authors = 8000 * EnvScale();
    config.seed = 42;
    return config;
  }

  static std::unique_ptr<Workload> Create(
      workload::DblpConfig config = DefaultConfig()) {
    auto w = std::make_unique<Workload>();
    w->stats = Unwrap(workload::GenerateDblp(config, &w->db));
    w->prefs = Unwrap(workload::ExtractPreferences(w->db, {}));
    // Focal users mirror the paper's pair: user A (uid=2 analog) combines a
    // strong original quantitative profile with a long qualitative list;
    // user B (uid=38437 analog) is a mid-size ~50-preference profile. A
    // profile with no user-provided anchors would derive all its
    // intensities from the flat DEFAULT seed, washing out the combination
    // experiments, so both picks require a minimum anchor count.
    std::map<core::UserId, size_t> positive_counts;
    for (const auto& q : w->prefs.quantitative) {
      if (q.intensity > 0) ++positive_counts[q.uid];
    }
    auto users = w->prefs.UsersByPreferenceCount();
    if (users.empty()) Die(Status::Internal("no users extracted"));
    auto anchors = [&](core::UserId uid) {
      auto it = positive_counts.find(uid);
      return it == positive_counts.end() ? size_t{0} : it->second;
    };
    w->user_a = users.front();
    for (core::UserId uid : users) {  // descending by total count
      if (anchors(uid) >= 6) {
        w->user_a = uid;
        break;
      }
    }
    size_t best_delta = ~0ULL;
    w->user_b = users.back();
    for (core::UserId uid : users) {
      if (uid == w->user_a || anchors(uid) < 6) continue;
      size_t count = w->prefs.per_user_counts.at(uid);
      size_t delta = count > 50 ? count - 50 : 50 - count;
      if (delta < best_delta) {
        best_delta = delta;
        w->user_b = uid;
      }
    }
    return w;
  }

  /// The dissertation's base query: SELECT * FROM dblp JOIN dblp_author.
  reldb::Query BaseQuery() const {
    reldb::Query q;
    q.from = "dblp";
    q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
    return q;
  }

  /// Builds the HYPRE graph for one user (optionally quantitative-only).
  core::HypreGraph BuildGraph(core::UserId uid,
                              bool with_qualitative = true,
                              core::HypreGraphConfig config = {}) const {
    core::HypreGraph graph(config);
    for (const auto& q : prefs.quantitative) {
      if (q.uid != uid) continue;
      Status st = graph.AddQuantitative(q).status();
      if (!st.ok()) Die(st);
    }
    if (with_qualitative) {
      for (const auto& q : prefs.qualitative) {
        if (q.uid != uid) continue;
        Status st = graph.AddQualitative(q).status();
        if (!st.ok()) Die(st);
      }
    }
    return graph;
  }

  /// Positive-intensity preference atoms of a user's graph, sorted
  /// descending, optionally truncated to the strongest `cap`.
  std::vector<core::PreferenceAtom> Atoms(const core::HypreGraph& graph,
                                          core::UserId uid,
                                          size_t cap = 0) const {
    std::vector<core::PreferenceAtom> atoms;
    for (const auto& entry : graph.ListPreferences(uid)) {
      atoms.push_back(Unwrap(core::MakeAtom(entry.predicate,
                                            entry.intensity)));
    }
    core::SortByIntensityDesc(&atoms);
    if (cap > 0 && atoms.size() > cap) atoms.resize(cap);
    return atoms;
  }
};

}  // namespace bench
}  // namespace hypre
