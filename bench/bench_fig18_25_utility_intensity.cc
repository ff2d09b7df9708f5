// Figures 18-25 — Utility, #tuples, and combined intensity for all
// combinations of 2, 5, and 10 preferences (two focal users).
//
// Paper: utility trends downward with combination order but combinations of
// 5 quickly top combinations of 2 (Figs. 18/19); tuple counts are spiky and
// uncorrelated with the smoothly-varying combined intensity (Figs. 20-25).
// The series below are produced by the same procedure: run
// Partially-Combine-All, then slice the probe stream by combination size.
#include <cstdio>

#include "bench_util.h"
#include "hypre/algorithms/partially_combine_all.h"
#include "hypre/metrics.h"

using namespace hypre;
using namespace hypre::bench;

namespace {

void RunForUser(const Workload& w, core::UserId uid, const char* tag) {
  core::HypreGraph graph = w.BuildGraph(uid);
  // Cap profiles so the probe stream stays printable; the paper plots the
  // first ~15 occurrences per size anyway.
  std::vector<core::PreferenceAtom> atoms = w.Atoms(graph, uid, 40);
  core::ProbeEngine engine(&w.db, w.BaseQuery(), "dblp.pid");
  auto records = Unwrap(core::PartiallyCombineAll(atoms, engine));

  std::printf("\n=== user %s (uid=%lld, %zu preferences used, %zu probes) "
              "===\n",
              tag, (long long)uid, atoms.size(), records.size());
  for (size_t size : {2, 5, 10}) {
    std::printf("\n-- combinations of %zu preferences "
                "(Figs. 18/19 utility; 20-25 tuples & intensity) --\n",
                size);
    std::printf("%5s %8s %10s %9s\n", "order", "#tuples", "intensity",
                "utility");
    size_t order = 0;
    for (const auto& r : records) {
      if (r.num_predicates != size) continue;
      if (order >= 15) break;  // the paper plots the first ~15 occurrences
      std::printf("%5zu %8zu %10.4f %9.3f\n", order, r.num_tuples,
                  r.intensity,
                  core::Utility(r.num_tuples, r.num_predicates, r.intensity));
      ++order;
    }
    if (order == 0) std::printf("  (no combinations of this size reached)\n");
  }
}

}  // namespace

int main() {
  auto w = Workload::Create();
  std::printf("Figures 18-25: utility / #tuples / intensity per combination "
              "order\n");
  RunForUser(*w, w->user_a, "A");
  RunForUser(*w, w->user_b, "B");
  return 0;
}
