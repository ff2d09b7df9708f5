// Combine-Two (dissertation §5.3.1, Algorithms 2 and 3).
//
// Exhaustively combines every ordered pair (i, j), i < j, of the user's
// preferences — the outer preference fixed, the inner one drawn from the
// remainder of the intensity-sorted list. Two semantics:
//   kAnd   : always AND (Algorithm 3) — some combinations are inapplicable
//            (two venues never co-occur on one paper);
//   kAndOr : same-attribute pairs use OR, different attributes use AND
//            (Algorithm 2) — eliminates the always-empty cases.
// Complexity O(N^2) probes (Proposition: C(N,2) pairs).
#pragma once

#include <vector>

#include "common/status.h"
#include "hypre/algorithms/common.h"
#include "hypre/batch_prober.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"

namespace hypre {
namespace core {

enum class CombineSemantics { kAnd, kAndOr };

/// \brief Runs Combine-Two over `preferences` (must be sorted descending by
/// intensity; use SortByIntensityDesc). Emits one record per pair in
/// generation order: (0,1), (0,2), ..., (1,2), (1,3), ... All C(N,2) pair
/// combinations are submitted as one batch frontier (bulk leaf prefetch +
/// one blocked shard pass).
///
/// `control` bounds the probe spend (one probe per pair; only the admitted
/// generation-order prefix is probed, truncated otherwise) and streams each
/// record as it is produced. Prefer dispatching by name through
/// api::Session::Enumerate("combine-two") — this free function is the
/// compatibility entry point it wraps.
Result<std::vector<CombinationRecord>> CombineTwo(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, CombineSemantics semantics,
    const ProbeOptions& options = ProbeOptions{},
    const EnumerationControl& control = EnumerationControl{});

}  // namespace core
}  // namespace hypre
