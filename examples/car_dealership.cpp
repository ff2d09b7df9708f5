// Car dealership: HYPRE vs. a Preference-SQL-style baseline (§2.5,
// Example 5).
//
// The dissertation motivates the hybrid model with this scenario: three
// preferences where mileage matters more than make. Preference SQL's
// PRIOR-TO returns t1, t3, t2 — but t2 matches the price AND mileage
// preferences while t3 misses the price preference, so the expected answer
// is t1, t2, t3. HYPRE's intensities produce exactly that (§4.6.1).
#include <cstdio>

#include <algorithm>

#include "example_util.h"
#include "hypre/api/session.h"
#include "hypre/ranking.h"

using namespace hypre;
using examples::Unwrap;

namespace {

/// A Preference-SQL-style evaluation of
///   PREFERRING price BETWEEN ... AND mileage BETWEEN ...
///              AND make IN ('BMW', 'Honda')
/// under best-match (distance) semantics: each soft clause contributes an
/// error — 0 if satisfied, the normalized distance to the range for
/// BETWEEN, 1 for a violated IN — and tuples are ranked by total error.
/// This reproduces the order the dissertation reports for Preference SQL
/// (t1, t3, t2): t3's small price overshoot costs less than t2's
/// categorical make miss. No intensities exist in this model, so "mileage
/// matters more than make" cannot tip the scale (§1.3, §2.5).
std::vector<std::pair<std::string, double>> PreferenceSqlOrder(
    const reldb::Database& db) {
  const reldb::Table* cars = db.GetTable("car");
  auto range_error = [](double v, double lo, double hi) {
    if (v >= lo && v <= hi) return 0.0;
    double dist = v < lo ? lo - v : v - hi;
    return std::min(1.0, dist / (hi - lo));
  };
  std::vector<std::pair<std::string, double>> scored;  // (id, total error)
  for (const auto& row : cars->rows()) {
    double price = static_cast<double>(row[1].AsInt());
    double mileage = static_cast<double>(row[2].AsInt());
    const std::string& make = row[3].AsString();
    double error = range_error(price, 7000, 16000) +
                   range_error(mileage, 20000, 50000) +
                   ((make == "BMW" || make == "Honda") ? 0.0 : 1.0);
    scored.emplace_back(row[0].AsString(), error);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  return scored;
}

}  // namespace

int main() {
  api::Session session(examples::MakeDealershipDatabase());
  const reldb::Database& db = *session.db();

  std::printf("Dealership relation (Table 5):\n");
  for (const auto& row : db.GetTable("car")->rows()) {
    std::printf("  %-3s price=$%-6lld mileage=%-6lld make=%s\n",
                row[0].AsString().c_str(), (long long)row[1].AsInt(),
                (long long)row[2].AsInt(), row[3].AsString().c_str());
  }

  // Baseline: Preference SQL semantics (no intensities).
  std::printf(
      "\nPreference-SQL-style order (best-match distance, no intensities; "
      "expected t1 > t3 > t2):\n");
  for (const auto& [id, error] : PreferenceSqlOrder(db)) {
    std::printf("  %s (total clause error %.2f)\n", id.c_str(), error);
  }

  // HYPRE: the same preferences with intensities 0.8 / 0.5 / 0.2.
  std::vector<core::PreferenceAtom> atoms;
  atoms.push_back(
      Unwrap(core::MakeAtom("price BETWEEN 7000 AND 16000", 0.8)));
  atoms.push_back(
      Unwrap(core::MakeAtom("mileage BETWEEN 20000 AND 50000", 0.5)));
  atoms.push_back(Unwrap(core::MakeAtom("make IN ('BMW', 'Honda')", 0.2)));

  reldb::Query base;
  base.from = "car";
  core::ProbeEngine* engine = Unwrap(session.GetEngine(base, "car.id"));
  auto ranked = Unwrap(core::ScoreTuplesByPreferences(*engine, atoms));

  std::printf("\nHYPRE order (intensity-combined, expected t1 > t2 > t3):\n");
  for (const auto& tuple : ranked) {
    std::printf("  %s (combined intensity %.2f)\n",
                tuple.key.AsString().c_str(), tuple.intensity);
  }
  std::printf(
      "\nt2 overtakes t3 because it matches the two high-intensity "
      "preferences\n(price, mileage) while t3 misses price — information "
      "the intensity-free\nPRIOR TO clause cannot encode.\n");
  return 0;
}
