// Evaluation metrics (dissertation §5.1, §5.2, §7.6.2).
//
// NOT runtime telemetry. This file scores result QUALITY — how selective,
// useful, and mutually similar the enumerated combinations are, per the
// paper's evaluation chapter. Operational metrics (latency histograms,
// cache hit counters, scheduler/WAL accounting) live in
// hypre/telemetry/registry.h; the two share nothing but the word
// "metrics".
//
//   Pref_Selectivity = #tuples / #preferences                  (Eq. 5.1)
//   Utility          = Pref_Selectivity * combined intensity   (Eq. 5.2)
//   Coverage         = distinct tuples touched when every preference is
//                      applied independently (Definition 18)
//   Similarity       = fraction of tuples common to two result lists
//   Overlap          = fraction of the common tuples whose relative order
//                      agrees across the two lists
// plus the combination-space bounds:
//   AND only:   2^N - 1                                        (Eq. 5.3)
//   AND + OR:   (3^N - 1) / 2                                  (Eq. 5.6)
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "hypre/ranking.h"
#include "reldb/value.h"

namespace hypre {
namespace core {

/// \brief Eq. 5.1. Returns 0 when no preferences are used.
double PrefSelectivity(size_t num_tuples, size_t num_preferences);

/// \brief Eq. 5.2, with the dissertation's first-page cap: only the first
/// `page_cap` tuples count toward selectivity (§7.1.1 uses 25) so that
/// huge low-intensity results do not register as outlier utility.
double Utility(size_t num_tuples, size_t num_preferences, double intensity,
               size_t page_cap = 25);

/// \brief Definition 18: the union of tuples matched by each predicate run
/// independently against the engine's base query.
Result<size_t> Coverage(const ProbeEngine& engine,
                        const std::vector<reldb::ExprPtr>& predicates);

/// \brief Definition 21: |A ∩ B| / max(|A|, |B|), as a percentage in
/// [0, 100]. 100 when both lists contain the same tuples (order ignored);
/// 0 when disjoint. Two empty lists are 100% similar.
double Similarity(const std::vector<reldb::Value>& a,
                  const std::vector<reldb::Value>& b);

/// \brief Tie-aware order preservation: over all pairs of common tuples
/// that are NOT tied (by intensity) in either list, the percentage of pairs
/// ranked in the same relative order by both lists (Kendall-style
/// concordance). Positional Overlap() is dominated by arbitrary tie
/// ordering when many tuples share a grade (typical for TA's per-attribute
/// lists); this variant measures what §7.6.3 actually claims — that the
/// relative order of the common tuples is preserved. Vacuously 100 when no
/// comparable pair exists.
double RankAgreement(const std::vector<RankedTuple>& a,
                     const std::vector<RankedTuple>& b);

/// \brief Definition 22: restrict both lists to their common tuples
/// (preserving order) and return the percentage of positions on which the
/// two restricted sequences agree. 100 when the relative order of all
/// common tuples is preserved; vacuously 100 when nothing is common.
double Overlap(const std::vector<reldb::Value>& a,
               const std::vector<reldb::Value>& b);

/// \brief Eq. 5.3: number of AND-only combinations of N preferences
/// (2^N - 1). Returned as double because it overflows quickly.
double CountAndCombinations(size_t n);

/// \brief Eq. 5.6: number of AND/OR combinations of N preferences
/// ((3^N - 1) / 2).
double CountAndOrCombinations(size_t n);

}  // namespace core
}  // namespace hypre
