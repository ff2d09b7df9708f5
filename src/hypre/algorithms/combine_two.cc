#include "hypre/algorithms/combine_two.h"

namespace hypre {
namespace core {

Result<std::vector<CombinationRecord>> CombineTwo(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, CombineSemantics semantics,
    const ProbeOptions& options, const EnumerationControl& control) {
  Combiner combiner(&preferences);
  CombinationProber prober(&combiner, &engine);
  BatchProber batch(&prober, options);
  std::vector<CombinationRecord> records;
  if (preferences.size() < 2) return records;

  // Build the whole C(N,2) frontier in generation order, then evaluate it as
  // one batch.
  std::vector<Combination> frontier;
  frontier.reserve(preferences.size() * (preferences.size() - 1) / 2);
  for (size_t i = 0; i + 1 < preferences.size(); ++i) {
    for (size_t j = i + 1; j < preferences.size(); ++j) {
      Combination base = combiner.Single(i);
      bool same_attribute =
          preferences[i].attribute_key == preferences[j].attribute_key;
      if (semantics == CombineSemantics::kAndOr && same_attribute) {
        frontier.push_back(combiner.OrInto(base, j));
      } else {
        frontier.push_back(combiner.AndExtend(base, j));
      }
    }
  }

  // The budget admits a generation-order prefix of the pair frontier BEFORE
  // probing.
  frontier.resize(control.Admit(frontier.size()));
  if (frontier.empty()) return records;

  HYPRE_RETURN_NOT_OK(prober.PrefetchAll());
  HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                         batch.CountBatch(frontier));

  records.reserve(frontier.size());
  for (size_t f = 0; f < frontier.size(); ++f) {
    CombinationRecord record;
    record.num_predicates = 2;
    record.num_tuples = counts[f];
    record.intensity = combiner.ComputeIntensity(frontier[f]);
    record.predicate_sql = combiner.ToSql(frontier[f]);
    record.combination = std::move(frontier[f]);
    control.Emit(record);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace core
}  // namespace hypre
