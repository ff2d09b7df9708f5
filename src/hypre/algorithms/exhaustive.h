// Exhaustive AND-combination enumeration — the reference oracle.
//
// Enumerates every non-empty subset of the preference list as an AND
// combination (2^N - 1 of them, Eq. 5.3). Exponential by construction
// (Proposition 3 is the reason PEPS exists), so it is guarded to small N and
// used only to validate PEPS in tests and to calibrate the pruning benches.
#pragma once

#include <vector>

#include "common/status.h"
#include "hypre/algorithms/common.h"
#include "hypre/batch_prober.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"

namespace hypre {
namespace core {

/// \brief Largest preference list exhaustive enumeration accepts: 2^20 - 1
/// probes is the most any caller (tests, benches, the wire) asks for, and a
/// longer list would pin its thread for hours (2^N blowup).
constexpr size_t kMaxExhaustivePreferences = 20;

/// \brief All applicable AND combinations (any size >= 1), descending by
/// combined intensity. Fails with InvalidArgument when N exceeds
/// kMaxExhaustivePreferences. The subset space is
/// probed in fixed-size batched generations (bulk leaf prefetch + blocked
/// shard passes).
///
/// `control` bounds the probe spend (one probe per subset; the run stops —
/// truncated — once the budget is spent) and streams applicable records in
/// probe order; the returned vector stays intensity-sorted. Prefer
/// dispatching by name through api::Session::Enumerate("exhaustive") — this
/// free function is the compatibility entry point it wraps.
Result<std::vector<CombinationRecord>> ExhaustiveAndCombinations(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine,
    const ProbeOptions& options = ProbeOptions{},
    const EnumerationControl& control = EnumerationControl{});

}  // namespace core
}  // namespace hypre
