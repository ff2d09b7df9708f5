// Skyline hotels: attribute-based preferences (dissertation §1.4 / §8.2).
//
// "I want the cheapest hotel that is close to the beach" becomes two
// attribute nodes <price, min> and <distance, min>; the skyline operator
// returns the undominated hotels, and a qualitative priority between the
// attribute nodes ("price is more important than distance") totally orders
// the skyline — the future-work extension implemented in hypre/skyline.h.
//
// Part two wires the probe layer into the skyline end-to-end: a preference
// COMBINATION (§4.6 AND-of-OR-groups) is evaluated to a candidate key
// bitmap by the probe engine, the matching keys are mapped back to row ids,
// and the skyline runs only over the tuples matching the combination —
// "the cheapest well-reviewed hotel among the 4-star-or-better ones". It
// then mutates the table (one new hotel, one closure) and shows
// ProbeEngine::Refresh() carrying the whole pipeline to the new state
// without a rebuild.
#include <cstdio>

#include "example_util.h"
#include "hypre/api/session.h"
#include "hypre/combination.h"
#include "hypre/delta_engine.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "hypre/skyline.h"
#include "reldb/database.h"

using namespace hypre;
using examples::Die;
using examples::Unwrap;

int main() {
  using reldb::Row;
  using reldb::Schema;
  using reldb::Value;
  using reldb::ValueType;

  reldb::Database db;
  auto hotels = db.CreateTable(
      "hotel", Schema({{"name", ValueType::kString},
                       {"price", ValueType::kInt64},
                       {"distance", ValueType::kDouble},
                       {"stars", ValueType::kInt64}}));
  if (!hotels.ok()) Die(hotels.status());
  struct H {
    const char* name;
    int64_t price;
    double distance;
    int64_t stars;
  };
  const H kHotels[] = {
      {"Sea Breeze", 120, 0.2, 4}, {"Dune Lodge", 80, 1.5, 3},
      {"Palm Court", 200, 0.1, 5}, {"Backpacker Inn", 40, 3.0, 2},
      {"Bay View", 95, 0.8, 4},    {"Grand Royal", 260, 0.5, 5},
      {"Shell Motel", 60, 2.4, 2}, {"Coast Hotel", 110, 0.4, 3},
      {"Budget Stay", 45, 2.9, 1}, {"Marina Suites", 150, 0.15, 4},
  };
  for (const auto& h : kHotels) {
    (*hotels)->AppendUnchecked(Row{Value::Str(h.name), Value::Int(h.price),
                                   Value::Real(h.distance),
                                   Value::Int(h.stars)});
  }

  std::printf("All hotels:\n");
  for (const auto& row : (*hotels)->rows()) {
    std::printf("  %-15s $%-4lld %.2f km  %lld*\n",
                row[0].AsString().c_str(), (long long)row[1].AsInt(),
                row[2].AsDouble(), (long long)row[3].AsInt());
  }

  // Attribute-based preferences: <price, min> weighted above
  // <distance, min> (the qualitative priority between attribute nodes).
  std::vector<core::AttributePreference> prefs{
      {"price", core::AttributePreference::Direction::kMin, /*weight=*/0.7},
      {"distance", core::AttributePreference::Direction::kMin,
       /*weight=*/0.3},
  };

  auto skyline = Unwrap(core::BlockNestedLoopSkyline(**hotels, prefs));
  std::printf("\nSkyline (<price, min> x <distance, min>): %zu hotels\n",
              skyline.size());
  for (reldb::RowId id : skyline) {
    const Row& row = (*hotels)->row(id);
    std::printf("  %-15s $%-4lld %.2f km\n", row[0].AsString().c_str(),
                (long long)row[1].AsInt(), row[2].AsDouble());
  }

  auto ranked = Unwrap(core::RankSkylineByPriority(**hotels, skyline, prefs));
  std::printf(
      "\nSkyline totally ordered with 'price more important than "
      "distance':\n");
  for (reldb::RowId id : ranked) {
    const Row& row = (*hotels)->row(id);
    std::printf("  %-15s $%-4lld %.2f km\n", row[0].AsString().c_str(),
                (long long)row[1].AsInt(), row[2].AsDouble());
  }

  // Flip the priority to show the order responds to it.
  prefs[0].weight = 0.2;
  prefs[1].weight = 0.8;
  auto flipped = Unwrap(core::RankSkylineByPriority(**hotels, skyline, prefs));
  std::printf("\n...and with 'distance more important than price':\n");
  for (reldb::RowId id : flipped) {
    const Row& row = (*hotels)->row(id);
    std::printf("  %-15s $%-4lld %.2f km\n", row[0].AsString().c_str(),
                (long long)row[1].AsInt(), row[2].AsDouble());
  }

  // --- Part two: skyline of the tuples matching a preference combination.
  //
  // Quantitative preferences feed the probe engine; the combination's
  // candidate bitmap restricts the skyline. Keys (hotel names) come back
  // from the engine and are mapped to row ids through the name index —
  // engine bitmaps index dense key ids, skyline bitmaps index RowIds, so
  // the hop through the index is the documented seam between the two.
  if (!(*hotels)->CreateHashIndex("name").ok()) {
    Die(Status::Internal("index build failed"));
  }
  // The probe engine comes from a session over the (borrowed) database —
  // the same cache Enumerate requests would share.
  api::Session session(&db);
  reldb::Query base;
  base.from = "hotel";
  const core::ProbeEngine& engine =
      *Unwrap(session.GetEngine(base, "hotel.name"));

  std::vector<core::PreferenceAtom> atoms;
  auto add = [&](const char* pred, double intensity) {
    auto atom = core::MakeAtom(pred, intensity);
    if (!atom.ok()) Die(atom.status());
    atoms.push_back(std::move(atom).TakeValue());
  };
  add("hotel.stars>=4", 0.9);
  add("hotel.stars=3", 0.4);  // same attribute: OR-combined (§4.6)
  add("hotel.price<=150", 0.7);
  core::SortByIntensityDesc(&atoms);

  core::Combiner combiner(&atoms);
  core::CombinationProber prober(&combiner, &engine);
  if (!prober.PrefetchAll().ok()) Die(Status::Internal("prefetch failed"));
  core::Combination combo = combiner.MixedClause({0, 1, 2});

  auto skyline_of_combo = [&]() {
    core::KeyBitmap combo_bits;
    Status st = prober.BitsInto(combo, &combo_bits);
    if (!st.ok()) Die(st);
    // Dense key ids -> hotel names -> RowIds.
    core::KeyBitmap candidates((*hotels)->num_rows());
    const reldb::HashIndex* by_name = (*hotels)->GetHashIndex("name");
    for (const reldb::Value& name : engine.KeysOf(combo_bits)) {
      for (reldb::RowId id : by_name->Lookup(name)) candidates.Set(id);
    }
    auto restricted =
        Unwrap(core::BlockNestedLoopSkyline(**hotels, prefs, candidates));
    std::printf("  combination %s -> %zu candidates, skyline:\n",
                combiner.ToSql(combo).c_str(), combo_bits.Count());
    for (reldb::RowId id : restricted) {
      const Row& row = (*hotels)->row(id);
      std::printf("    %-15s $%-4lld %.2f km  %lld*\n",
                  row[0].AsString().c_str(), (long long)row[1].AsInt(),
                  row[2].AsDouble(), (long long)row[3].AsInt());
    }
  };

  std::printf("\nSkyline restricted to a preference combination:\n");
  skyline_of_combo();

  // Mutate the base table and Refresh: a new cheap 4-star hotel opens, a
  // skyline member closes. The journal-driven delta pass patches the
  // engine's universe and cached bitmaps — no engine rebuild.
  if (!(*hotels)
           ->Append(Row{Value::Str("Driftwood Inn"), Value::Int(85),
                        Value::Real(0.3), Value::Int(4)})
           .ok()) {
    Die(Status::Internal("append failed"));
  }
  if (!(*hotels)->Delete(4).ok()) {  // Bay View closes
    Die(Status::Internal("delete failed"));
  }
  auto epoch = session.Refresh();  // refreshes every cached engine
  if (!epoch.ok()) Die(epoch.status());
  std::printf(
      "\nAfter one append + one delete (Refresh -> epoch %llu, "
      "%zu keys recomputed, %zu tombstoned):\n",
      (unsigned long long)*epoch,
      engine.delta_engine().stats().keys_recomputed,
      engine.delta_engine().stats().keys_tombstoned);
  skyline_of_combo();
  return 0;
}
