#include "hypre/ranking.h"

#include <algorithm>

#include "hypre/intensity.h"

namespace hypre {
namespace core {

void SortRanked(std::vector<RankedTuple>* tuples) {
  std::stable_sort(tuples->begin(), tuples->end(),
                   [](const RankedTuple& a, const RankedTuple& b) {
                     if (a.intensity != b.intensity) {
                       return a.intensity > b.intensity;
                     }
                     return a.key.Compare(b.key) < 0;
                   });
}

Result<std::vector<RankedTuple>> ScoreTuplesByPreferences(
    const ProbeEngine& engine,
    const std::vector<PreferenceAtom>& preferences) {
  // For each preference, probe its key bitmap, then fold f_and per key over
  // dense score/matched arrays (one slot per universe key).
  HYPRE_ASSIGN_OR_RETURN(size_t universe, engine.UniverseSize());
  std::vector<double> score(universe, 0.0);
  std::vector<char> matched(universe, 0);
  for (const auto& pref : preferences) {
    HYPRE_ASSIGN_OR_RETURN(KeyBitmap bits, engine.EvalBitmap(pref.expr));
    bits.ForEachSet([&](uint32_t id) {
      if (!matched[id]) {
        matched[id] = 1;
        score[id] = pref.intensity;
      } else {
        score[id] = CombineAnd(score[id], pref.intensity);
      }
    });
  }
  std::vector<RankedTuple> out;
  for (uint32_t id = 0; id < universe; ++id) {
    if (matched[id]) out.push_back({engine.KeyAt(id), score[id]});
  }
  SortRanked(&out);
  return out;
}

}  // namespace core
}  // namespace hypre
