// The six built-in algorithms behind the unified API, and the constant
// table that names them.
//
// Each run function is a thin, stateless adapter from the request/response
// shape to one algorithm's native entry point; the budget/sink control
// plane is forwarded into the algorithm, which enforces it at generation
// granularity (see hypre/algorithms/common.h). Everything session-level —
// engine caching, epoch pinning, leaf prefetch, statistics deltas — is the
// Session's job, not the algorithms'.
#include <algorithm>

#include "common/string_util.h"
#include "hypre/algorithms/bias_random.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/partially_combine_all.h"
#include "hypre/algorithms/peps.h"
#include "hypre/algorithms/threshold_algorithm.h"
#include "hypre/api/enumeration.h"

namespace hypre {
namespace api {

namespace {

Status RunExhaustive(const EnumerationContext& ctx, EnumerationResult* result) {
  HYPRE_ASSIGN_OR_RETURN(
      result->records,
      core::ExhaustiveAndCombinations(*ctx.preferences, *ctx.engine,
                                      ctx.probe_options, ctx.control));
  return Status::OK();
}

Status RunCombineTwo(const EnumerationContext& ctx, EnumerationResult* result) {
  HYPRE_ASSIGN_OR_RETURN(
      result->records,
      core::CombineTwo(*ctx.preferences, *ctx.engine, ctx.request->semantics,
                       ctx.probe_options, ctx.control));
  return Status::OK();
}

Status RunPartiallyCombineAll(const EnumerationContext& ctx,
                              EnumerationResult* result) {
  HYPRE_ASSIGN_OR_RETURN(
      result->records,
      core::PartiallyCombineAll(*ctx.preferences, *ctx.engine,
                                ctx.probe_options, ctx.control));
  return Status::OK();
}

Status RunBiasRandom(const EnumerationContext& ctx, EnumerationResult* result) {
  HYPRE_ASSIGN_OR_RETURN(
      core::BiasRandomResult run,
      core::BiasRandomSelection(*ctx.preferences, *ctx.engine,
                                ctx.request->seed, ctx.probe_options,
                                ctx.control));
  result->records = std::move(run.records);
  result->valid_checks = run.valid_checks;
  result->invalid_checks = run.invalid_checks;
  return Status::OK();
}

Status RunPeps(const EnumerationContext& ctx, EnumerationResult* result) {
  core::Peps peps(ctx.preferences, ctx.engine, ctx.probe_options);
  if (ctx.request->k > 0) {
    HYPRE_ASSIGN_OR_RETURN(
        result->top_k,
        peps.TopK(ctx.request->k, ctx.request->mode, ctx.control));
  } else {
    HYPRE_ASSIGN_OR_RETURN(
        result->records, peps.GenerateOrder(ctx.request->mode, ctx.control));
  }
  return Status::OK();
}

Status RunThresholdAlgorithm(const EnumerationContext& ctx,
                             EnumerationResult* result) {
  // One probe per atom builds the graded lists (each atom's key bitmap is
  // materialized once); the remaining budget caps the sorted-access
  // depth, TA's unit of work.
  const auto& atoms = *ctx.preferences;
  size_t admitted = ctx.control.Admit(atoms.size());
  std::vector<core::PreferenceAtom> prefix;
  const std::vector<core::PreferenceAtom>* list_atoms = &atoms;
  if (admitted < atoms.size()) {
    prefix.assign(atoms.begin(),
                  atoms.begin() + static_cast<std::ptrdiff_t>(admitted));
    list_atoms = &prefix;
  }
  HYPRE_ASSIGN_OR_RETURN(std::vector<core::GradedList> lists,
                         core::BuildGradedLists(*ctx.engine, *list_atoms));
  size_t max_depth = 0;
  if (ctx.control.budget != nullptr && ctx.control.budget->limited()) {
    max_depth = ctx.control.budget->remaining();
    if (max_depth == 0) {
      if (ctx.control.truncated != nullptr) *ctx.control.truncated = true;
      return Status::OK();
    }
  }
  size_t sorted_accesses = 0;
  bool capped = false;
  HYPRE_ASSIGN_OR_RETURN(
      result->top_k,
      core::ThresholdAlgorithmTopK(lists, ctx.request->k, &sorted_accesses,
                                   max_depth, &capped));
  ctx.control.Admit(sorted_accesses);  // always fits: max_depth bounded it
  if (capped && ctx.control.truncated != nullptr) {
    *ctx.control.truncated = true;
  }
  for (const core::RankedTuple& tuple : result->top_k) {
    ctx.control.Emit(tuple);
  }
  return Status::OK();
}

}  // namespace

constexpr std::array<Algorithm, 6> kAlgorithms = {{
    {"bias-random",
     "intensity-biased random chain growth (Algorithm 5; deterministic per "
     "seed)",
     RunBiasRandom},
    {"combine-two",
     "all C(N,2) preference pairs (Algorithms 2/3; AND or AND/OR)",
     RunCombineTwo},
    {"exhaustive",
     "every non-empty AND subset (2^N - 1 probes; reference oracle)",
     RunExhaustive},
    {"partially-combine-all",
     "growing mixed AND/OR clauses, one preference at a time (Algorithm 4)",
     RunPartiallyCombineAll},
    {"peps", "pair-table-pruned expansion (Algorithm 6); k > 0 ranks tuples",
     RunPeps},
    {"ta",
     "Fagin's Threshold Algorithm over per-attribute graded lists (Top-K "
     "baseline)",
     RunThresholdAlgorithm},
}};
static_assert(std::is_sorted(kAlgorithms.begin(), kAlgorithms.end(),
                             [](const Algorithm& a, const Algorithm& b) {
                               return a.name < b.name;
                             }),
              "kAlgorithms must stay sorted by name");

Result<const Algorithm*> FindAlgorithm(std::string_view name) {
  for (const Algorithm& algorithm : kAlgorithms) {
    if (algorithm.name == name) return &algorithm;
  }
  std::string known;
  for (const Algorithm& algorithm : kAlgorithms) {
    if (!known.empty()) known += ", ";
    known += algorithm.name;
  }
  return Status::InvalidArgument(
      StringFormat("unknown algorithm '%s' (registered: %s)",
                   std::string(name).c_str(), known.c_str()));
}

}  // namespace api
}  // namespace hypre
