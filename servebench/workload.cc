#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "common/json.h"
#include "common/random.h"
#include "workload/dblp_generator.h"

namespace servebench {

using hypre::Json;
using hypre::Result;
using hypre::Rng;
using hypre::Status;
using hypre::ZipfSampler;

Result<std::unique_ptr<hypre::reldb::Database>> GenerateTenantDb() {
  // Mirrors TenantManager's synthetic branch (src/hypre/server/tenant.cc).
  hypre::workload::DblpConfig config;
  config.num_papers = kPapers;
  config.num_authors = std::max<size_t>(1, kPapers / 3);
  config.seed = kUniverseSeed;
  auto db = std::make_unique<hypre::reldb::Database>();
  HYPRE_RETURN_NOT_OK(hypre::workload::GenerateDblp(config, db.get()).status());
  return db;
}

namespace {

double Round3(double v) { return std::round(v * 1000.0) / 1000.0; }

struct Corpus {
  std::vector<std::string> venue_names;
  std::vector<uint16_t> venue_of_paper;
  std::vector<std::vector<uint32_t>> papers_of_author;
  std::vector<std::vector<uint32_t>> authors_of_paper;
  std::vector<std::vector<uint32_t>> cites;
};

Corpus LoadCorpus(const hypre::reldb::Database& db) {
  Corpus c;
  const auto* dblp = db.GetTable("dblp");
  const auto* links = db.GetTable("dblp_author");
  const auto* citation = db.GetTable("citation");
  const auto* authors = db.GetTable("author");
  std::map<std::string, uint16_t> venue_index;
  c.venue_of_paper.resize(dblp->num_rows());
  c.authors_of_paper.resize(dblp->num_rows());
  c.cites.resize(dblp->num_rows());
  c.papers_of_author.resize(authors->num_rows());
  for (const auto& row : dblp->rows()) {
    const std::string& venue = row[3].AsString();
    auto it = venue_index.find(venue);
    if (it == venue_index.end()) {
      it = venue_index.emplace(venue, c.venue_names.size()).first;
      c.venue_names.push_back(venue);
    }
    c.venue_of_paper[row[0].AsInt()] = it->second;
  }
  for (const auto& row : links->rows()) {
    uint32_t pid = static_cast<uint32_t>(row[0].AsInt());
    uint32_t aid = static_cast<uint32_t>(row[1].AsInt());
    c.authors_of_paper[pid].push_back(aid);
    c.papers_of_author[aid].push_back(pid);
  }
  for (const auto& row : citation->rows()) {
    c.cites[row[0].AsInt()].push_back(static_cast<uint32_t>(row[1].AsInt()));
  }
  return c;
}

/// Share of `aid`'s papers per venue index.
std::vector<double> VenueShares(const Corpus& c, uint32_t aid) {
  std::vector<double> shares(c.venue_names.size(), 0.0);
  const auto& papers = c.papers_of_author[aid];
  for (uint32_t pid : papers) shares[c.venue_of_paper[pid]] += 1.0;
  for (double& s : shares) s /= std::max<size_t>(1, papers.size());
  return shares;
}

}  // namespace

std::vector<Profile> DeriveProfiles(const hypre::reldb::Database& db) {
  const Corpus c = LoadCorpus(db);
  std::vector<Profile> out;
  for (uint32_t aid = 0; aid < c.papers_of_author.size(); ++aid) {
    if (c.papers_of_author[aid].empty()) continue;
    Profile p;
    p.user = aid;
    // 1. Top-5 venues by share of the user's own papers.
    const std::vector<double> own = VenueShares(c, aid);
    std::vector<uint16_t> venues;
    for (uint16_t v = 0; v < own.size(); ++v) {
      if (own[v] > 0) venues.push_back(v);
    }
    std::sort(venues.begin(), venues.end(), [&](uint16_t a, uint16_t b) {
      return own[a] != own[b] ? own[a] > own[b]
                              : c.venue_names[a] < c.venue_names[b];
    });
    for (size_t i = 0; i < venues.size() && i < 5; ++i) {
      p.atoms.push_back({"dblp.venue='" + c.venue_names[venues[i]] + "'",
                         Round3(own[venues[i]])});
    }
    // 2. Cited authors with at least a 0.1 share of the user's citations.
    std::map<uint32_t, double> cited;
    double total = 0;
    for (uint32_t pid : c.papers_of_author[aid]) {
      for (uint32_t cid : c.cites[pid]) {
        for (uint32_t b : c.authors_of_paper[cid]) {
          if (b == aid) continue;
          cited[b] += 1.0;
          total += 1.0;
        }
      }
    }
    std::vector<std::pair<double, uint32_t>> strong;
    for (const auto& [b, count] : cited) {
      if (count / total >= 0.1) strong.push_back({count / total, b});
    }
    std::sort(strong.begin(), strong.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });
    for (size_t i = 0; i < strong.size() && i < 10; ++i) {
      p.atoms.push_back({"dblp_author.aid=" + std::to_string(strong[i].second),
                         Round3(strong[i].first)});
    }
    // 3. Up to three negative venues: never published in by the user, but
    //    by the authors they cite, weighted by both shares.
    std::vector<double> negative(c.venue_names.size(), 0.0);
    for (const auto& [b, count] : cited) {
      const std::vector<double> theirs = VenueShares(c, b);
      for (size_t v = 0; v < theirs.size(); ++v) {
        if (own[v] > 0) continue;
        negative[v] = std::max(negative[v], (count / total) * theirs[v]);
      }
    }
    std::vector<uint16_t> disliked;
    for (uint16_t v = 0; v < negative.size(); ++v) {
      if (Round3(negative[v]) > 0) disliked.push_back(v);
    }
    std::sort(disliked.begin(), disliked.end(), [&](uint16_t a, uint16_t b) {
      return negative[a] != negative[b]
                 ? negative[a] > negative[b]
                 : c.venue_names[a] < c.venue_names[b];
    });
    for (size_t i = 0; i < disliked.size() && i < 3; ++i) {
      p.atoms.push_back({"dblp.venue='" + c.venue_names[disliked[i]] + "'",
                         -Round3(negative[disliked[i]])});
    }
    if (p.atoms.size() >= 3 && p.atoms.size() <= 20) {
      out.push_back(std::move(p));
    }
  }
  return out;
}

namespace {

struct Variant {
  const char* algorithm;
  size_t k;
  double weight;
};

// The algorithm mixes, the Zipf exponents (1.0 over the hot set, 0.6 over
// the tail) and the 60/40 append/delete split of mixed_rw are assumptions
// of this benchmark, not taken from a measured trace or a cited source.
// They set how often a request repeats, so the share of repeated reads is
// reported with every run (outside view, "read_repeat_share").
//
// hot_read and mixed_rw reads: mostly PEPS top-10, plus PEPS records and
// the two combination enumerators (small responses).
const std::vector<Variant> kHotMix = {{"peps", 10, 0.70},
                                      {"peps", 0, 0.10},
                                      {"combine-two", 0, 0.10},
                                      {"partially-combine-all", 0, 0.10}};
// cold_tail: PEPS top-10 with a share of TA top-10.
const std::vector<Variant> kTailMix = {{"peps", 10, 0.80}, {"ta", 10, 0.20}};

size_t PickVariant(const std::vector<Variant>& mix, Rng* rng) {
  double u = rng->NextDouble();
  for (size_t i = 0; i + 1 < mix.size(); ++i) {
    if (u < mix[i].weight) return i;
    u -= mix[i].weight;
  }
  return mix.size() - 1;
}

std::string EnumerateText(const std::vector<Atom>& atoms,
                          const std::string& algorithm, size_t k,
                          bool refresh, size_t probe_budget = 0) {
  Json body = Json::Object();
  body.Set("algorithm", Json::Str(algorithm));
  body.Set("base_query", Json::Str(kBaseQuery));
  body.Set("key_column", Json::Str(kKeyColumn));
  Json prefs = Json::Array();
  for (const Atom& atom : atoms) {
    Json p = Json::Object();
    p.Set("predicate", Json::Str(atom.predicate));
    p.Set("intensity", Json::Double(atom.intensity));
    prefs.Append(std::move(p));
  }
  body.Set("preferences", std::move(prefs));
  body.Set("k", Json::Int(static_cast<int64_t>(k)));
  if (probe_budget > 0) {
    body.Set("probe_budget", Json::Int(static_cast<int64_t>(probe_budget)));
  }
  body.Set("refresh", Json::Bool(refresh));
  return body.Dump();
}

Body EnumerateBody(const Profile& profile, const Variant& v, bool refresh) {
  Body b;
  b.target = std::string("/v1/") + kTenant + "/enumerate";
  b.text = EnumerateText(profile.atoms, v.algorithm, v.k, refresh);
  b.label = std::string(v.algorithm) + "/" + std::to_string(v.k);
  for (const Atom& atom : profile.atoms) b.predicates.push_back(atom.predicate);
  return b;
}

/// Requests arriving every 1/rate seconds, dealt round-robin to the
/// connections, each naming a body drawn by `draw`.
template <typename Draw>
Phase OpenPhase(const std::string& name, double rate, double seconds,
                size_t connections, Draw draw) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  phase.seconds = seconds;
  phase.streams.resize(connections);
  phase.loops.assign(connections, Loop::kOpen);
  const size_t n = static_cast<size_t>(rate * seconds);
  for (size_t i = 0; i < n; ++i) {
    Op op;
    op.at_ns = static_cast<uint64_t>(1e9 * static_cast<double>(i) / rate);
    op.body = draw();
    phase.streams[i % connections].push_back(op);
  }
  return phase;
}

/// `connections` closed-loop clients for `seconds`, each with `per_stream`
/// requests drawn by `draw` (more than it can send in that time).
template <typename Draw>
Phase ClosedPhase(const std::string& name, double seconds, size_t connections,
                  size_t per_stream, Draw draw) {
  Phase phase;
  phase.name = name;
  phase.seconds = seconds;
  phase.streams.resize(connections);
  phase.loops.assign(connections, Loop::kClosed);
  for (size_t i = 0; i < per_stream * connections; ++i) {
    phase.streams[i % connections].push_back({0, draw()});
  }
  return phase;
}

}  // namespace

std::string WarmupBody(const std::vector<std::string>& predicates,
                       size_t* leaves) {
  std::set<std::string> seen;
  std::vector<Atom> atoms;
  for (const std::string& predicate : predicates) {
    if (seen.insert(predicate).second) atoms.push_back({predicate, 0.5});
  }
  *leaves = atoms.size();
  return EnumerateText(atoms, "combine-two", 0, false, 1);
}

namespace {

std::vector<std::string> PredicatesOf(const std::vector<const Profile*>& users) {
  std::vector<std::string> out;
  for (const Profile* p : users) {
    for (const Atom& atom : p->atoms) out.push_back(atom.predicate);
  }
  return out;
}

}  // namespace

Result<Plan> BuildPlan(const std::string& workload, uint64_t seed,
                       double seconds,
                       const std::vector<Profile>& population) {
  if (population.size() < 1000) {
    return Status::Internal("profile population too small: " +
                            std::to_string(population.size()));
  }
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  plan.population = population.size();
  {
    std::vector<size_t> sizes;
    for (const Profile& p : population) sizes.push_back(p.atoms.size());
    std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                     sizes.end());
    plan.median_atoms = static_cast<double>(sizes[sizes.size() / 2]);
  }
  // Popularity: a fixed permutation of the population ranks users, so
  // every seed serves the same users with the same popularity; the seed
  // draws the request sequence (Zipf over the rank) and the writes.
  std::vector<const Profile*> ranked;
  for (const Profile& p : population) ranked.push_back(&p);
  {
    Rng fixed(kUniverseSeed);
    for (size_t i = ranked.size(); i > 1; --i) {
      std::swap(ranked[i - 1], ranked[fixed.NextBounded(i)]);
    }
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);

  // The gated metrics come from one closed-loop client. run.py pins the
  // server and the replay threads to one core, so the figures are the
  // serving path's cost on that core and not the hypervisor's cross-core
  // wake-ups, which on a shared host moved them by up to 3x. The ungated
  // rate ladder runs on two connections.
  constexpr size_t kClients = 1;
  constexpr size_t kLadderConnections = 2;
  constexpr size_t kHotSet = 100;
  const std::vector<const Profile*> hot(ranked.begin(),
                                        ranked.begin() + kHotSet);

  if (workload == "hot_read" || workload == "mixed_rw") {
    const bool mixed = workload == "mixed_rw";
    plan.hot_set = kHotSet;
    plan.warmup = WarmupBody(PredicatesOf(hot), &plan.warm_leaves);
    for (const Profile* p : hot) {
      for (const Variant& v : kHotMix) {
        plan.bodies.push_back(EnumerateBody(*p, v, /*refresh=*/mixed));
      }
    }
    ZipfSampler zipf(kHotSet, 1.0);
    auto draw_read = [&]() -> uint32_t {
      const size_t user = zipf.Sample(&rng);
      return static_cast<uint32_t>(user * kHotMix.size() +
                                   PickVariant(kHotMix, &rng));
    };
    // A closed-loop client sends at most this many reads a second.
    constexpr double kMaxClientRate = 10000;
    if (!mixed) {
      plan.check = CheckMode::kExactBytes;
      // Sixteen closed-loop rounds of the same length and load.
      constexpr size_t kRounds = 16;
      const double round_s = seconds * 0.05;
      for (size_t round = 0; round < kRounds; ++round) {
        plan.phases.push_back(ClosedPhase(
            "closed", round_s, kClients,
            static_cast<size_t>(kMaxClientRate * round_s), draw_read));
      }
      // Then the rate ladder, reported beside the gated metrics: the
      // highest rung whose p99 meets the latency limit with the server
      // keeping up with the offered rate. It stops at the first miss.
      plan.latency_limit_ms = 10;
      for (double rate : {1000, 1500, 2000, 2500, 3000, 3500, 4000}) {
        plan.phases.push_back(OpenPhase("rung", rate, 0.75,
                                        kLadderConnections, draw_read));
      }
    } else {
      plan.storage = true;
      plan.check = CheckMode::kReadYourWrites;
      // Writes: appended papers linked to the hot set's cited authors (so
      // the delta engine touches cached leaves) and deletes of original
      // papers, each original deleted at most once.
      std::vector<std::string> hot_authors;
      std::vector<std::string> hot_venues;
      for (const Profile* p : hot) {
        for (const Atom& atom : p->atoms) {
          const std::string& pred = atom.predicate;
          if (pred.rfind("dblp_author.aid=", 0) == 0) {
            hot_authors.push_back(pred.substr(16));
          } else if (atom.intensity > 0) {
            hot_venues.push_back(pred.substr(12, pred.size() - 13));
          }
        }
      }
      std::vector<int64_t> deletable(kPapers);
      for (size_t i = 0; i < kPapers; ++i) deletable[i] = int64_t(i);
      for (size_t i = deletable.size(); i > 1; --i) {
        std::swap(deletable[i - 1], deletable[rng.NextBounded(i)]);
      }
      size_t next_delete = 0;
      int64_t next_pid = int64_t(kPapers);
      const double write_rate = 10;
      // Rounds of half a second, five writes each.
      const size_t rounds = std::max<size_t>(1, size_t(seconds * 2));
      std::vector<uint32_t> writes;
      const size_t num_writes = static_cast<size_t>(write_rate * seconds);
      // 60% appends in every round, in a seeded order. An append costs a
      // refresh of tens of milliseconds (the key order is rebuilt), a
      // delete well under one, so a drawn share would move the figures
      // with the seed.
      std::vector<char> appends;
      for (size_t round = 0; round < rounds; ++round) {
        const size_t n = num_writes * (round + 1) / rounds -
                         num_writes * round / rounds;
        std::vector<char> kinds(n, 0);
        std::fill(kinds.begin(), kinds.begin() + (n * 3 + 2) / 5, 1);
        for (size_t i = n; i > 1; --i) {
          std::swap(kinds[i - 1], kinds[rng.NextBounded(i)]);
        }
        appends.insert(appends.end(), kinds.begin(), kinds.end());
      }
      for (size_t i = 0; i < num_writes; ++i) {
        Json ops = Json::Array();
        if (appends[i]) {
          const int64_t pid = next_pid++;
          Json paper = Json::Object();
          paper.Set("op", Json::Str("append"));
          paper.Set("table", Json::Str("dblp"));
          Json row = Json::Array();
          row.Append(Json::Int(pid));
          row.Append(Json::Str("Paper " + std::to_string(pid)));
          row.Append(Json::Int(2011));
          row.Append(
              Json::Str(hot_venues[rng.NextBounded(hot_venues.size())]));
          paper.Set("row", std::move(row));
          ops.Append(std::move(paper));
          const size_t num_authors = 1 + rng.NextBounded(3);
          std::set<std::string> chosen;
          for (size_t a = 0; a < num_authors; ++a) {
            const std::string& aid =
                hot_authors[rng.NextBounded(hot_authors.size())];
            if (!chosen.insert(aid).second) continue;
            Json link = Json::Object();
            link.Set("op", Json::Str("append"));
            link.Set("table", Json::Str("dblp_author"));
            Json lrow = Json::Array();
            lrow.Append(Json::Int(pid));
            lrow.Append(Json::Int(std::stoll(aid)));
            link.Set("row", std::move(lrow));
            ops.Append(std::move(link));
          }
        } else {
          Json del = Json::Object();
          del.Set("op", Json::Str("delete"));
          del.Set("table", Json::Str("dblp"));
          del.Set("row_id", Json::Int(deletable[next_delete++]));
          ops.Append(std::move(del));
        }
        Json body = Json::Object();
        body.Set("ops", std::move(ops));
        body.Set("commit", Json::Bool(true));
        Body b;
        b.is_write = true;
        b.target = std::string("/v1/") + kTenant + "/mutate";
        b.text = body.Dump();
        b.label = "mutate";
        writes.push_back(static_cast<uint32_t>(plan.bodies.size()));
        plan.bodies.push_back(std::move(b));
      }
      // Each round has one closed-loop read client and one open-loop write
      // connection carrying the same number of writes and appends.
      // A second reader would keep an epoch pinned nearly all the time, so
      // refreshes would be deferred over and over and their timing, not
      // the work, would set the figures.
      const double round_s = seconds / rounds;
      for (size_t round = 0; round < rounds; ++round) {
        Phase phase = ClosedPhase(
            "mixed", round_s, kClients,
            static_cast<size_t>(kMaxClientRate * round_s), draw_read);
        std::vector<Op> stream;
        const size_t begin = writes.size() * round / rounds;
        const size_t end = writes.size() * (round + 1) / rounds;
        for (size_t i = begin; i < end; ++i) {
          stream.push_back(
              {static_cast<uint64_t>(1e9 * double(i - begin) / write_rate),
               writes[i]});
        }
        phase.rate = write_rate;
        phase.streams.push_back(std::move(stream));
        phase.loops.push_back(Loop::kOpen);
        plan.phases.push_back(std::move(phase));
      }
      // Final read-your-writes probes: PEPS top-10 for 16 hot users.
      for (size_t i = 0; i < 16; ++i) {
        plan.probes.push_back(static_cast<uint32_t>(plan.bodies.size()));
        plan.bodies.push_back(EnumerateBody(*hot[i], kHotMix[0], true));
      }
    }
    return plan;
  }

  if (workload == "cold_tail") {
    plan.check = CheckMode::kSampleNoStats;
    // A fixed batch of tail requests, sized to take about `seconds` at the
    // rate one client gets through it (one executor pass per cold request,
    // about five a second on the reference machine). The batch is drawn
    // once (Zipf over the whole population); the seed orders it. Every
    // distinct user in the batch has a cited-author leaf no other batch
    // user has, so each user's first request runs exactly one executor
    // pass whatever the order.
    const size_t batch = static_cast<size_t>(5 * seconds);
    ZipfSampler zipf(ranked.size(), 0.6);
    Rng fixed(kUniverseSeed + 1);
    std::unordered_map<uint64_t, uint32_t> index;
    std::set<size_t> accepted;
    std::set<std::string> used_leaves;
    std::set<std::string> private_leaves;
    std::vector<uint32_t> order;
    while (order.size() < batch) {
      const size_t user = zipf.Sample(&fixed);
      const size_t variant = PickVariant(kTailMix, &fixed);
      if (accepted.count(user) == 0) {
        const std::vector<Atom>& atoms = ranked[user]->atoms;
        const std::string* own = nullptr;
        bool clashes = false;
        for (const Atom& atom : atoms) {
          clashes = clashes || private_leaves.count(atom.predicate) > 0;
          if (own == nullptr && used_leaves.count(atom.predicate) == 0 &&
              atom.predicate.rfind("dblp_author.aid=", 0) == 0) {
            own = &atom.predicate;
          }
        }
        if (clashes || own == nullptr) continue;
        private_leaves.insert(*own);
        for (const Atom& atom : atoms) used_leaves.insert(atom.predicate);
        accepted.insert(user);
      }
      const uint64_t key = user * kTailMix.size() + variant;
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, uint32_t(plan.bodies.size())).first;
        plan.bodies.push_back(
            EnumerateBody(*ranked[user], kTailMix[variant], false));
      }
      order.push_back(it->second);
    }
    // Leaves that several batch users share (venues, commonly cited
    // authors) are prefetched in set-up. Otherwise whichever request came
    // first would pay for them, and the seed's order would move the
    // latencies. A user's first request then materializes exactly the
    // leaves only that user has, and every run does the same work.
    std::map<std::string, size_t> users_of_leaf;
    for (size_t user : accepted) {
      for (const Atom& atom : ranked[user]->atoms) {
        ++users_of_leaf[atom.predicate];
      }
    }
    std::vector<std::string> shared;
    for (const auto& [leaf, users] : users_of_leaf) {
      if (users > 1) shared.push_back(leaf);
    }
    plan.warmup = WarmupBody(shared, &plan.warm_leaves);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    // The TA requests, which each hold a core for about a second after
    // their prefetch, go to evenly spaced slots, so that every seed puts
    // the same mix of work on the cache lock and the cores throughout.
    {
      std::vector<uint32_t> ta;
      std::vector<uint32_t> rest;
      for (uint32_t b : order) {
        (plan.bodies[b].label.rfind("ta/", 0) == 0 ? ta : rest).push_back(b);
      }
      size_t next_ta = 0;
      size_t next_rest = 0;
      for (size_t i = 0; i < order.size(); ++i) {
        const bool slot_ta =
            next_ta < ta.size() &&
            (2 * next_ta + 1) * order.size() <= 2 * i * ta.size() + ta.size();
        order[i] = slot_ta ? ta[next_ta++] : rest[next_rest++];
      }
    }
    // One client: cold prefetches serialize on the engine's cache lock, so
    // a second client only adds lock waits, which made the figures spread.
    Phase phase;
    phase.name = "closed";
    // A safety cap only: the phase ends when the batch is done.
    phase.seconds = 120;
    phase.streams.resize(kClients);
    phase.loops.assign(kClients, Loop::kClosed);
    for (size_t i = 0; i < order.size(); ++i) {
      phase.streams[i % kClients].push_back({0, order[i]});
    }
    plan.phases.push_back(std::move(phase));
    return plan;
  }
  return Status::InvalidArgument("unknown workload '" + workload +
                                 "' (hot_read, cold_tail, mixed_rw)");
}

namespace {

/// Replaces the JSON value that follows `"<key>":` at the top level of a
/// response with `replacement`. Values are a flat object or an integer.
std::string ReplaceValue(const std::string& body, const std::string& key,
                         const std::string& replacement) {
  const std::string needle = "\"" + key + "\":";
  size_t at = body.rfind(needle);
  if (at == std::string::npos) return body;
  size_t begin = at + needle.size();
  size_t end = begin;
  if (end < body.size() && body[end] == '{') {
    end = body.find('}', end);
    if (end == std::string::npos) return body;
    ++end;
  } else {
    while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
  }
  return body.substr(0, begin) + replacement + body.substr(end);
}

}  // namespace

std::string BlankStats(const std::string& body) {
  return ReplaceValue(body, "stats", "{}");
}

std::string BlankEpoch(const std::string& body) {
  // "epoch" is the second top-level key; find its first occurrence.
  const std::string needle = "\"epoch\":";
  size_t at = body.find(needle);
  if (at == std::string::npos) return body;
  size_t begin = at + needle.size();
  size_t end = begin;
  while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
  return body.substr(0, begin) + "0" + body.substr(end);
}

bool ScanInt(const std::string& body, const char* name, int64_t* out) {
  const std::string needle = std::string("\"") + name + "\":";
  size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  const char* p = body.c_str() + at + needle.size();
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  if (end == p) return false;
  *out = v;
  return true;
}

}  // namespace servebench
