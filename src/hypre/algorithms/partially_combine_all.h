// Partially-Combine-All (dissertation §5.3.2, Algorithm 4).
//
// Consumes the intensity-sorted preference list one preference at a time and
// grows mixed AND/OR clauses:
//  * first preference: starts the first combination;
//  * preference over a NEW attribute: AND-extends every combination created
//    so far (AND is inflationary, so re-running old combinations with the
//    extra conjunct can only raise their intensity);
//  * preference over an ALREADY-SEEN attribute:
//      - if the latest combination has no AND yet, OR it into that
//        combination only (OR lowers intensity, so it is not propagated);
//      - otherwise, AND-extend every earlier combination that does not yet
//        constrain this attribute, and OR it into the matching group of the
//        latest combination.
// Complexity O(N) probes in the single-attribute cases and O(N^2) in the
// mixed case (Proposition 5).
#pragma once

#include <vector>

#include "common/status.h"
#include "hypre/algorithms/common.h"
#include "hypre/batch_prober.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"

namespace hypre {
namespace core {

/// \brief Runs Partially-Combine-All over `preferences` (sorted descending
/// by intensity). Records are emitted in probe order; combination sizes grow
/// over time, and the same size reappears whenever older combinations are
/// re-run with a new conjunct (which is why Figures 32-34 plot "combination
/// order" per size). Each generation — the set of combinations a new
/// preference spawns — is submitted as one batch frontier.
///
/// `control` bounds the probe spend (one probe per spawned combination; each
/// generation is admitted as a prefix before probing and the run stops —
/// truncated — when the budget runs dry) and streams records in probe
/// order. Prefer dispatching by name through
/// api::Session::Enumerate("partially-combine-all") — this free function is
/// the compatibility entry point it wraps.
Result<std::vector<CombinationRecord>> PartiallyCombineAll(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine,
    const ProbeOptions& options = ProbeOptions{},
    const EnumerationControl& control = EnumerationControl{});

}  // namespace core
}  // namespace hypre
