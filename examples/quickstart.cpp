// Quickstart: the dissertation's running car-dealership example (Example 6)
// end to end — build a profile, enhance a query, rank the results.
//
//   $ ./quickstart
//
// Expected ranking (Table 9): t1 (0.92), t2 (0.90), t3 (0.60).
#include <cstdio>

#include "example_util.h"
#include "hypre/api/session.h"
#include "hypre/combination.h"
#include "hypre/hypre_graph.h"
#include "hypre/ranking.h"

using namespace hypre;
using examples::Unwrap;

int main() {
  // 1. A session over the dealership relation of Tables 5/8.
  api::Session session(examples::MakeDealershipDatabase());

  // 2. A user profile in the HYPRE graph: three quantitative preferences.
  core::HypreGraph graph;
  const core::UserId uid = 1;
  struct {
    const char* predicate;
    double intensity;
  } prefs[] = {
      {"price BETWEEN 7000 AND 16000", 0.8},
      {"mileage BETWEEN 20000 AND 50000", 0.5},
      {"make IN ('BMW', 'Honda')", 0.2},
  };
  for (const auto& p : prefs) {
    Unwrap(graph.AddQuantitative({uid, p.predicate, p.intensity}));
  }

  std::printf("User profile (descending by intensity):\n");
  for (const auto& entry : graph.ListPreferences(uid)) {
    std::printf("  %-36s intensity=%.2f  (%s)\n", entry.predicate.c_str(),
                entry.intensity,
                core::ProvenanceToString(entry.provenance));
  }

  // 3. Enhance the base query "SELECT * FROM car" with the profile and rank
  //    each car by f_and over the preferences it matches (§4.6.1). The
  //    session caches the probe engine under (base query, key column).
  reldb::Query base;
  base.from = "car";
  core::ProbeEngine* engine = Unwrap(session.GetEngine(base, "car.id"));

  std::vector<core::PreferenceAtom> atoms;
  for (const auto& entry : graph.ListPreferences(uid)) {
    atoms.push_back(Unwrap(core::MakeAtom(entry.predicate, entry.intensity)));
  }

  // Show the §4.6-style rewritten SQL for the mixed clause.
  core::Combiner combiner(&atoms);
  std::vector<size_t> all(atoms.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  core::Combination mixed = combiner.MixedClause(all);
  std::printf("\nEnhanced query:\n  %s\n",
              engine->Enhance(combiner.BuildExpr(mixed)).ToSql().c_str());

  auto ranked = Unwrap(core::ScoreTuplesByPreferences(*engine, atoms));

  std::printf("\nRanked results (Table 9 expects 0.92 / 0.90 / 0.60):\n");
  for (const auto& tuple : ranked) {
    std::printf("  car %-4s combined intensity = %.2f\n",
                tuple.key.AsString().c_str(), tuple.intensity);
  }
  return 0;
}
