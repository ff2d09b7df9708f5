#include "hypre/algorithms/exhaustive.h"

#include <algorithm>

#include "common/string_util.h"

namespace hypre {
namespace core {

Result<std::vector<CombinationRecord>> ExhaustiveAndCombinations(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, const ProbeOptions& options,
    const EnumerationControl& control) {
  size_t n = preferences.size();
  if (n > kMaxExhaustivePreferences) {
    return Status::InvalidArgument(StringFormat(
        "exhaustive enumeration over %zu preferences would probe 2^%zu - 1 "
        "combinations (cap %zu)",
        n, n, kMaxExhaustivePreferences));
  }
  Combiner combiner(&preferences);
  CombinationProber prober(&combiner, &engine);
  BatchProber batch(&prober, options);
  if (n > 0) HYPRE_RETURN_NOT_OK(prober.PrefetchAll());
  std::vector<CombinationRecord> records;

  // Probe the subset space one fixed-size generation at a time: build the
  // next chunk of combinations, evaluate them in one blocked batch pass, keep
  // the applicable ones.
  constexpr size_t kGeneration = 2048;
  std::vector<Combination> frontier;
  bool budget_dry = false;
  // The budget admits each generation as a prefix BEFORE it is probed.
  auto flush = [&]() -> Status {
    if (frontier.empty()) return Status::OK();
    size_t admitted = control.Admit(frontier.size());
    if (admitted < frontier.size()) {
      budget_dry = true;
      frontier.resize(admitted);
      if (frontier.empty()) return Status::OK();
    }
    HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                           batch.CountBatch(frontier));
    for (size_t f = 0; f < frontier.size(); ++f) {
      if (counts[f] == 0) continue;
      CombinationRecord record;
      record.num_predicates = frontier[f].NumPredicates();
      record.num_tuples = counts[f];
      record.intensity = combiner.ComputeIntensity(frontier[f]);
      record.predicate_sql = combiner.ToSql(frontier[f]);
      record.combination = std::move(frontier[f]);
      control.Emit(record);
      records.push_back(std::move(record));
    }
    frontier.clear();
    return Status::OK();
  };

  for (uint64_t mask = 1; mask < (1ULL << n) && !budget_dry; ++mask) {
    Combination combination;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) {
        combination = combination.groups.empty()
                          ? combiner.Single(i)
                          : combiner.AndExtend(combination, i);
      }
    }
    frontier.push_back(std::move(combination));
    if (frontier.size() >= kGeneration) HYPRE_RETURN_NOT_OK(flush());
  }
  HYPRE_RETURN_NOT_OK(flush());
  std::stable_sort(records.begin(), records.end(),
                   [](const CombinationRecord& a, const CombinationRecord& b) {
                     return a.intensity > b.intensity;
                   });
  return records;
}

}  // namespace core
}  // namespace hypre
