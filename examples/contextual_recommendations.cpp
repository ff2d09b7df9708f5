// Contextual recommendations: the dissertation's background machinery
// (§2.4) and future-work items (§8.2) working together —
//  * a contextual profile (Definition 11 / Figure 2): different preferences
//    under (company, period) contexts;
//  * a CP-net (Definition 12 / Figure 3): genre-conditional director
//    preferences;
//  * a group profile (§8.2): merging the family's preferences for a shared
//    movie night.
#include <cstdio>

#include "example_util.h"
#include "hypre/api/session.h"
#include "hypre/context.h"
#include "hypre/cp_net.h"
#include "hypre/group_profile.h"
#include "hypre/hypre_graph.h"
#include "hypre/ranking.h"

using namespace hypre;
using examples::Die;
using examples::Unwrap;

namespace {

void PrintRanking(api::Session* session,
                  const std::vector<core::QuantitativePreference>& prefs) {
  // Every context resolves through the SAME session-cached probe engine:
  // the first ranking pays the leaf probes, later ones are pure algebra.
  reldb::Query base;
  base.from = "movie";
  core::ProbeEngine* engine =
      Unwrap(session->GetEngine(base, "movie.movie_id"));
  std::vector<core::PreferenceAtom> atoms;
  for (const auto& p : prefs) {
    atoms.push_back(Unwrap(core::MakeAtom(p.predicate, p.intensity)));
  }
  auto ranked = Unwrap(core::ScoreTuplesByPreferences(*engine, atoms));
  const reldb::Table* movies = session->db()->GetTable("movie");
  for (const auto& tuple : ranked) {
    for (const auto& row : movies->rows()) {
      if (row[0].Equals(tuple.key)) {
        std::printf("  %+0.3f  %s\n", tuple.intensity,
                    row[1].AsString().c_str());
      }
    }
  }
}

}  // namespace

int main() {
  api::Session session(examples::MakeMovieDatabase());

  // --- 1. Contextual profile over (company, period) ------------------------
  core::ContextualProfile profile({"company", "period"});
  const core::UserId uid = 1;
  auto add = [&](core::ContextState state, const char* predicate,
                 double intensity) {
    Status s = profile.AddContextPreference(
        state, {uid, predicate, intensity});
    if (!s.ok()) Die(s);
  };
  // Generic taste; overridden with friends on weekends (comedy night) and
  // with family during holidays (no horror, dramas welcome).
  add({"ALL", "ALL"}, "movie.genre='drama'", 0.4);
  add({"friends", "weekend"}, "movie.genre='comedy'", 0.9);
  add({"friends", "weekend"}, "movie.genre='drama'", 0.1);
  add({"family", "holidays"}, "movie.genre='horror'", -0.9);
  add({"family", "holidays"}, "movie.genre='drama'", 0.8);

  std::printf("Context (friends, weekend):\n");
  PrintRanking(&session, Unwrap(profile.Resolve({"friends", "weekend"})));
  std::printf("\nContext (family, holidays):\n");
  PrintRanking(&session, Unwrap(profile.Resolve({"family", "holidays"})));

  // --- 2. CP-net: Figure 3's genre-conditional director preference ---------
  core::CpNet net;
  if (!net.AddAttribute("genre", {"comedy", "drama"}).ok() ||
      !net.AddAttribute("director", {"S. Spielberg", "M. Curtiz"}).ok() ||
      !net.AddDependency("genre", "director").ok()) {
    Die(Status::Internal("CP-net setup failed"));
  }
  Status s1 = net.SetPreferenceOrder("genre", {}, {"comedy", "drama"});
  Status s2 = net.SetPreferenceOrder("director", {"comedy"},
                                     {"S. Spielberg", "M. Curtiz"});
  Status s3 = net.SetPreferenceOrder("director", {"drama"},
                                     {"M. Curtiz", "S. Spielberg"});
  if (!s1.ok() || !s2.ok() || !s3.ok()) Die(Status::Internal("CPT failed"));

  std::printf("\nCP-net outcome ranking (genre-conditional director):\n");
  for (const auto& outcome : Unwrap(net.RankOutcomes())) {
    std::printf("  %s by %s\n", outcome.at("genre").c_str(),
                outcome.at("director").c_str());
  }
  core::Outcome best = Unwrap(net.BestOutcome({{"genre", "drama"}}));
  std::printf("Best pick when the group settles on drama: %s\n",
              best.at("director").c_str());

  // --- 3. Group profile: family movie night ---------------------------------
  core::HypreGraph graph;
  // Parent 1 likes dramas, parent 2 likes comedies, the kid dislikes drama.
  Unwrap(graph.AddQuantitative({10, "movie.genre='drama'", 0.8}));
  Unwrap(graph.AddQuantitative({11, "movie.genre='comedy'", 0.7}));
  Unwrap(graph.AddQuantitative({12, "movie.genre='drama'", -0.6}));
  Unwrap(graph.AddQuantitative({12, "movie.genre='comedy'", 0.5}));
  Unwrap(core::MaterializeGroupProfile(&graph, {10, 11, 12}, 99));

  std::printf("\nFamily group profile (average aggregation):\n");
  std::vector<core::QuantitativePreference> group_prefs;
  for (const auto& entry : graph.ListPreferences(99, true)) {
    std::printf("  %-24s %+0.3f\n", entry.predicate.c_str(),
                entry.intensity);
    group_prefs.push_back({99, entry.predicate, entry.intensity});
  }
  std::printf("Group ranking:\n");
  PrintRanking(&session, group_prefs);
  return 0;
}
