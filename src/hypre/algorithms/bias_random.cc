#include "hypre/algorithms/bias_random.h"

#include <algorithm>

#include "common/random.h"

namespace hypre {
namespace core {

namespace {

/// Weighted draw without replacement: picks an index from `pool` with
/// probability proportional to its preference intensity (clamped to a small
/// positive floor so zero-intensity preferences stay reachable) and removes
/// it from the pool.
size_t DrawBiased(const std::vector<PreferenceAtom>& preferences,
                  std::vector<size_t>* pool, Rng* rng) {
  constexpr double kFloor = 1e-3;
  double total = 0.0;
  for (size_t idx : *pool) {
    total += std::max(preferences[idx].intensity, kFloor);
  }
  double u = rng->NextDouble() * total;
  double acc = 0.0;
  size_t chosen_pos = pool->size() - 1;
  for (size_t pos = 0; pos < pool->size(); ++pos) {
    acc += std::max(preferences[(*pool)[pos]].intensity, kFloor);
    if (u < acc) {
      chosen_pos = pos;
      break;
    }
  }
  size_t chosen = (*pool)[chosen_pos];
  pool->erase(pool->begin() + static_cast<std::ptrdiff_t>(chosen_pos));
  return chosen;
}

void Record(const Combiner& combiner, const EnumerationControl& control,
            const Combination& combination, size_t num_tuples,
            std::vector<CombinationRecord>* records) {
  CombinationRecord record;
  record.num_predicates = combination.NumPredicates();
  record.num_tuples = num_tuples;
  record.intensity = combiner.ComputeIntensity(combination);
  record.predicate_sql = combiner.ToSql(combination);
  record.combination = combination;
  control.Emit(record);
  records->push_back(std::move(record));
}

}  // namespace

Result<BiasRandomResult> BiasRandomSelection(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, uint64_t seed,
    const ProbeOptions& options, const EnumerationControl& control) {
  Combiner combiner(&preferences);
  CombinationProber prober(&combiner, &engine);
  BatchProber batch(&prober, options);
  if (!preferences.empty()) HYPRE_RETURN_NOT_OK(prober.PrefetchAll());
  BiasRandomResult result;
  Rng rng(seed);

  // The seed generation (chain = {first} against every other preference) is
  // evaluated as ONE batch and the Step-4 redraw loop consults the
  // precomputed counts; ext_counts[p] is only valid for p in the pool the
  // last seed batch saw.
  std::vector<size_t> ext_counts(preferences.size(), 0);
  auto consult = [&](size_t count) {
    if (count > 0) {
      ++result.valid_checks;
    } else {
      ++result.invalid_checks;
    }
    return count > 0;
  };

  // Budget: one charge per CONSUMED verdict (the seed table's precomputed
  // counts are only charged when a draw consults them). The in-flight chain
  // is dropped, not recorded, when the budget runs dry mid-chain.
  bool budget_dry = false;

  KeyBitmap chain_bits;
  for (size_t first = 0; first < preferences.size() && !budget_dry;
       ++first) {
    std::vector<size_t> pool;
    for (size_t i = 0; i < preferences.size(); ++i) {
      if (i != first) pool.push_back(i);
    }
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* first_bits,
                           prober.PreferenceBits(first));
    if (!pool.empty()) {
      // chain = {first}: one generation answers every seed probe below.
      HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                             batch.CountExtensions(*first_bits, pool));
      for (size_t p = 0; p < pool.size(); ++p) ext_counts[pool[p]] = counts[p];
    }
    // Find an applicable two-preference seed (Step 1-2 of §5.4).
    while (!pool.empty()) {
      if (control.Admit(1) == 0) {
        budget_dry = true;
        break;
      }
      size_t second = DrawBiased(preferences, &pool, &rng);
      Combination chain =
          combiner.AndExtend(combiner.Single(first), second);
      size_t chain_count = ext_counts[second];
      if (!consult(chain_count)) continue;  // try another second (Step 4)
      HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* second_bits,
                             prober.PreferenceBits(second));
      chain_bits = *first_bits;
      chain_bits.AndWith(*second_bits);
      // Extend the chain until a probe fails or the pool runs dry
      // (Steps 3-6). Unlike the seed loop, an extension table would be
      // consulted at most once before the chain state changes (success) or
      // the chain is recorded (failure), so batching the whole pool here
      // would discard |pool|-1 counts — probe just the drawn candidate
      // against the incrementally maintained chain bitmap instead.
      for (;;) {
        if (pool.empty()) {
          Record(combiner, control, chain, chain_count, &result.records);
          break;
        }
        if (control.Admit(1) == 0) {
          budget_dry = true;
          break;
        }
        size_t next = DrawBiased(preferences, &pool, &rng);
        Combination extended = combiner.AndExtend(chain, next);
        HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* next_bits,
                               prober.PreferenceBits(next));
        size_t extended_count = KeyBitmap::AndCount(chain_bits, *next_bits);
        engine.NoteProbesAnswered(1);
        if (!consult(extended_count)) {
          Record(combiner, control, chain, chain_count, &result.records);
          break;
        }
        chain = std::move(extended);
        chain_count = extended_count;
        chain_bits.AndWith(*next_bits);
      }
      break;  // chain recorded; move to the next starting preference
    }
  }
  return result;
}

}  // namespace core
}  // namespace hypre
