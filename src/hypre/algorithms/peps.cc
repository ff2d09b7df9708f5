#include "hypre/algorithms/peps.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace hypre {
namespace core {

Peps::Peps(const std::vector<PreferenceAtom>* preferences,
           const ProbeEngine* engine, ProbeOptions options)
    : preferences_(preferences),
      engine_(engine),
      combiner_(preferences),
      prober_(&combiner_, engine),
      options_(options),
      batch_(&prober_, options) {}

bool Peps::PairApplicable(size_t a, size_t b) const {
  size_t n = preferences_->size();
  return pair_applicable_[a * n + b];
}

Status Peps::PrecomputePairs(const EnumerationControl& control) {
  if (pairs_ready_) return Status::OK();
  const auto& prefs = *preferences_;
  size_t n = prefs.size();
  pairs_.clear();
  pair_applicable_.assign(n * n, false);

  auto record_pair = [&](size_t i, size_t j, size_t count) {
    if (count == 0) return;
    PairEntry entry;
    entry.i = i;
    entry.j = j;
    entry.intensity = combiner_.ComputeIntensity(
        combiner_.AndExtend(combiner_.Single(i), j));
    entry.num_tuples = count;
    pairs_.push_back(entry);
    pair_applicable_[i * n + j] = true;
    pair_applicable_[j * n + i] = true;
  };

  // Bulk leaf prefetch (one executor pass), then the whole upper triangle
  // as one blocked shard pass. The budget admits a generation-order prefix
  // of the triangle.
  HYPRE_RETURN_NOT_OK(prober_.PrefetchAll());
  std::vector<std::pair<size_t, size_t>> pair_list;
  pair_list.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pair_list.emplace_back(i, j);
  }
  pair_list.resize(control.Admit(pair_list.size()));
  if (!pair_list.empty()) {
    HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                           batch_.CountPairs(pair_list));
    for (size_t p = 0; p < pair_list.size(); ++p) {
      record_pair(pair_list[p].first, pair_list[p].second, counts[p]);
    }
  }
  std::stable_sort(pairs_.begin(), pairs_.end(),
                   [](const PairEntry& a, const PairEntry& b) {
                     return a.intensity > b.intensity;
                   });
  pairs_ready_ = true;
  return Status::OK();
}

Result<std::vector<CombinationRecord>> Peps::GenerateOrder(
    PepsMode mode, const EnumerationControl& control) {
  HYPRE_RETURN_NOT_OK(PrecomputePairs(control));
  const auto& prefs = *preferences_;
  num_expansion_probes_ = 0;

  // Approximate mode prunes seed pairs that do not already beat the best
  // single preference (§5.5.2): combinations grown from weaker seeds would
  // need many more conjuncts to catch up (Proposition 6), and the
  // approximate variant bets they never will.
  double best_single = prefs.empty() ? 0.0 : prefs.front().intensity;

  std::vector<CombinationRecord> order;
  std::unordered_set<std::string> seen;  // dedup by sorted member sets

  auto member_key = [](const std::vector<size_t>& sorted_members) {
    std::string key;
    for (size_t m : sorted_members) {
      key += std::to_string(m);
      key += ",";
    }
    return key;
  };

  // DFS over the set-enumeration tree: members kept ascending; an extension
  // index k must form an applicable pair with every current member (the
  // pair-table pruning), and the extended set is then verified with one
  // AND+popcount against the frame's bitmap. The bitmap is rebuilt into a
  // reused scratch buffer on pop (an AND per member over the cached
  // per-preference bitmaps) rather than stored per frame, so frames stay
  // small and the DFS does no per-frame heap traffic.
  struct Frame {
    std::vector<size_t> members;  // ascending
    Combination combination;
    size_t num_tuples = 0;
  };

  std::vector<Frame> stack;
  for (const PairEntry& pair : pairs_) {
    if (mode == PepsMode::kApproximate && pair.intensity <= best_single) {
      continue;
    }
    Frame frame;
    frame.members = {pair.i, pair.j};
    frame.combination =
        combiner_.AndExtend(combiner_.Single(pair.i), pair.j);
    frame.num_tuples = pair.num_tuples;
    std::string key = member_key(frame.members);
    if (!seen.insert(key).second) continue;
    stack.push_back(std::move(frame));
  }

  KeyBitmap frame_bits;
  std::vector<size_t> candidates;  // reused per-frame extension batch
  bool budget_dry = false;
  while (!stack.empty() && !budget_dry) {
    Frame frame = std::move(stack.back());
    stack.pop_back();

    CombinationRecord record;
    record.num_predicates = frame.members.size();
    record.num_tuples = frame.num_tuples;
    record.intensity = combiner_.ComputeIntensity(frame.combination);
    record.predicate_sql = combiner_.ToSql(frame.combination);
    record.combination = frame.combination;
    control.Emit(record);
    order.push_back(std::move(record));

    // Collect every extension k that survives the pair-table pruning and the
    // dedup check; they form the frame's candidate frontier.
    candidates.clear();
    size_t last = frame.members.back();
    for (size_t k = last + 1; k < prefs.size(); ++k) {
      bool all_pairs_ok = true;
      for (size_t m : frame.members) {
        if (!PairApplicable(m, k)) {
          all_pairs_ok = false;
          break;
        }
      }
      if (!all_pairs_ok) continue;
      std::vector<size_t> extended_members = frame.members;
      extended_members.push_back(k);
      if (!seen.insert(member_key(extended_members)).second) continue;
      candidates.push_back(k);
    }
    // The budget admits a prefix of the frame's candidate frontier BEFORE
    // probing; once dry, the DFS stops after this frame.
    size_t admitted = control.Admit(candidates.size());
    if (admitted < candidates.size()) {
      budget_dry = true;
      candidates.resize(admitted);
    }
    if (candidates.empty()) continue;

    // Verify the whole frontier against the frame's bitmap in one blocked
    // batch pass.
    HYPRE_RETURN_NOT_OK(prober_.BitsInto(frame.combination, &frame_bits));
    num_expansion_probes_ += candidates.size();
    HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                           batch_.CountExtensions(frame_bits, candidates));
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (counts[c] == 0) continue;
      size_t k = candidates[c];
      Frame next;
      next.members = frame.members;
      next.members.push_back(k);
      next.combination = combiner_.AndExtend(frame.combination, k);
      next.num_tuples = counts[c];
      stack.push_back(std::move(next));
    }
  }

  std::stable_sort(order.begin(), order.end(),
                   [](const CombinationRecord& a, const CombinationRecord& b) {
                     return a.intensity > b.intensity;
                   });
  return order;
}

Result<std::vector<RankedTuple>> Peps::TopK(
    size_t k, PepsMode mode, const EnumerationControl& control) {
  const auto& prefs = *preferences_;
  HYPRE_ASSIGN_OR_RETURN(std::vector<CombinationRecord> order,
                         GenerateOrder(mode, control));

  // Singles participate too: tuples matching exactly one preference are
  // ranked by that preference's own intensity.
  for (size_t i = 0; i < prefs.size(); ++i) {
    Combination single = combiner_.Single(i);
    CombinationRecord record;
    record.num_predicates = 1;
    record.intensity = prefs[i].intensity;
    record.combination = single;
    record.predicate_sql = prefs[i].predicate;
    // Tuple count not needed for ranking; fetched lazily below.
    order.push_back(std::move(record));
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const CombinationRecord& a, const CombinationRecord& b) {
                     return a.intensity > b.intensity;
                   });

  std::vector<RankedTuple> result;
  std::unordered_set<reldb::Value, reldb::ValueHash> ranked;
  KeyBitmap bits;
  for (const CombinationRecord& record : order) {
    if (k > 0 && result.size() >= k) break;
    HYPRE_RETURN_NOT_OK(prober_.BitsInto(record.combination, &bits));
    // KeysOf is deterministic: keys come out in Value total order.
    std::vector<reldb::Value> keys = engine_->KeysOf(bits);
    for (const auto& key : keys) {
      if (k > 0 && result.size() >= k) break;
      if (!ranked.insert(key).second) continue;
      result.push_back({key, record.intensity});
      control.Emit(result.back());
    }
  }
  return result;
}

}  // namespace core
}  // namespace hypre
