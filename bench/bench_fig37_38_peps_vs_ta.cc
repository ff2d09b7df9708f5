// Figures 37-38 — PEPS vs. Fagin's TA: intensity per rank, similarity and
// overlap (§7.6.3).
//
// Paper: (1) on quantitative-only input PEPS and TA match exactly — 100%
// similarity, 100% overlap; (2) on the full hybrid graph PEPS finds more
// tuples above the intensity threshold and assigns overall higher
// intensities; similarity drops (~37% in the paper) because TA cannot see
// graph-derived preferences, yet the common tuples keep their relative
// order (100% overlap). All three shapes are checked below.
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "hypre/algorithms/peps.h"
#include "hypre/algorithms/threshold_algorithm.h"
#include "hypre/metrics.h"

using namespace hypre;
using namespace hypre::bench;

namespace {

/// Builds TA's venue/author graded lists from a set of atoms, probing the
/// bitmap engine.
std::vector<core::GradedList> BuildLists(
    const core::ProbeEngine& engine,
    const std::vector<core::PreferenceAtom>& atoms) {
  std::vector<core::GradedList> built = Unwrap(core::BuildGradedLists(
      engine, atoms, [](const core::PreferenceAtom& atom) {
        return atom.attribute_key.find("venue") != std::string::npos
                   ? std::string("venue")
                   : std::string("author");
      }));
  // TA always ran with both lists in {venue, author} order (the order sets
  // tie-break behavior at the k-cutoff), even when one side had no atoms.
  std::vector<core::GradedList> lists;
  for (const char* name : {"venue", "author"}) {
    bool found = false;
    for (auto& list : built) {
      if (list.name() == name) {
        lists.push_back(std::move(list));
        found = true;
        break;
      }
    }
    if (!found) lists.emplace_back(name);
  }
  return lists;
}

std::vector<reldb::Value> KeysOf(const std::vector<core::RankedTuple>& list) {
  std::vector<reldb::Value> keys;
  keys.reserve(list.size());
  for (const auto& t : list) keys.push_back(t.key);
  return keys;
}

void RunForUser(const Workload& w, core::UserId uid, const char* tag) {
  core::ProbeEngine engine(&w.db, w.BaseQuery(), "dblp.pid");
  constexpr size_t kK = 50;

  std::printf("\n=== user %s (uid=%lld) ===\n", tag, (long long)uid);

  // --- Experiment 1: quantitative-only graph ------------------------------
  core::HypreGraph quant_graph = w.BuildGraph(uid, false);
  std::vector<core::PreferenceAtom> quant_atoms =
      w.Atoms(quant_graph, uid, 60);
  std::vector<core::GradedList> lists_q = BuildLists(engine, quant_atoms);
  auto ta_q = Unwrap(core::ThresholdAlgorithmTopK(lists_q, kK));
  core::Peps peps_q(&quant_atoms, &engine);
  auto peps_top_q = Unwrap(peps_q.TopK(kK, core::PepsMode::kComplete));
  std::printf("quantitative-only: similarity %.0f%%, rank agreement %.0f%% "
              "(paper: 100%% / 100%%)\n",
              core::Similarity(KeysOf(ta_q), KeysOf(peps_top_q)),
              core::RankAgreement(ta_q, peps_top_q));

  // --- Experiment 2: full hybrid graph -------------------------------------
  core::HypreGraph full_graph = w.BuildGraph(uid);
  std::vector<core::PreferenceAtom> full_atoms =
      w.Atoms(full_graph, uid, 60);
  core::Peps peps_f(&full_atoms, &engine);
  auto peps_top_f = Unwrap(peps_f.TopK(kK, core::PepsMode::kComplete));

  std::printf("hybrid graph:      similarity %.0f%%, rank agreement %.0f%% "
              "(paper: ~37%% / 100%%)\n",
              core::Similarity(KeysOf(ta_q), KeysOf(peps_top_f)),
              core::RankAgreement(ta_q, peps_top_f));

  // Intensity-per-rank series (the Fig. 37/38 curves).
  std::printf("\n%5s %12s %12s\n", "rank", "PEPS(full)", "TA(quant)");
  for (size_t i = 0; i < kK; i += 5) {
    std::printf("%5zu %12s %12s\n", i,
                i < peps_top_f.size()
                    ? StringFormat("%.4f", peps_top_f[i].intensity).c_str()
                    : "-",
                i < ta_q.size()
                    ? StringFormat("%.4f", ta_q[i].intensity).c_str()
                    : "-");
  }

  // Count tuples above the best single-preference intensity threshold.
  double threshold =
      quant_atoms.empty() ? 0.0 : quant_atoms.front().intensity;
  size_t peps_above = 0;
  size_t ta_above = 0;
  for (const auto& t : peps_top_f) {
    if (t.intensity >= threshold) ++peps_above;
  }
  for (const auto& t : ta_q) {
    if (t.intensity >= threshold) ++ta_above;
  }
  std::printf("\ntuples with intensity >= %.3f in the top-%zu: PEPS %zu, "
              "TA %zu (paper: PEPS covers more)\n",
              threshold, kK, peps_above, ta_above);
}

}  // namespace

int main() {
  auto w = Workload::Create();
  std::printf("Figures 37-38: PEPS vs TopK TA\n");
  RunForUser(*w, w->user_a, "A");
  RunForUser(*w, w->user_b, "B");
  return 0;
}
