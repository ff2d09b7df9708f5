// Seeded traffic for the serving benchmark.
//
// Everything the benchmark sends is derived from (workload, seed) and the
// tenant's own synthetic DBLP universe, which this file regenerates with
// the exact configuration hypre_server uses for a `synthetic_papers`
// tenant. The server only ever receives the generated request bytes.
//
// Profiles follow the shape of the paper's preference extraction (§6.2):
// a user is an author; their preferences are the top-5 venues of their own
// papers, the authors they cite with a share of at least 0.1, and a few
// negative venues (venues they never published in but their cited authors
// did). The derivation walks the generated tables once per user instead of
// running workload::ExtractPreferences over the whole corpus.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "reldb/database.h"

namespace servebench {

/// Size and seed of the tenant universe. Fixed: the workload seed varies
/// the traffic, never the data.
constexpr size_t kPapers = 100000;
constexpr uint64_t kUniverseSeed = 42;
constexpr const char* kTenant = "t";
constexpr const char* kBaseQuery =
    "SELECT * FROM dblp JOIN dblp_author ON dblp.pid = dblp_author.pid";
constexpr const char* kKeyColumn = "dblp.pid";

struct Atom {
  std::string predicate;
  double intensity = 0;
};

struct Profile {
  int64_t user = 0;  // author id
  std::vector<Atom> atoms;
};

/// The tenant's database, generated exactly as TenantManager does for a
/// synthetic tenant of kPapers papers.
hypre::Result<std::unique_ptr<hypre::reldb::Database>> GenerateTenantDb();

/// Every user (author) whose profile has 3 to 20 atoms, in author-id order.
std::vector<Profile> DeriveProfiles(const hypre::reldb::Database& db);

enum class Loop { kOpen, kClosed };

/// One distinct request the streams refer to by index.
struct Body {
  bool is_write = false;
  std::string target;  // "/v1/t/enumerate" or "/v1/t/mutate"
  std::string text;    // JSON body
  std::string label;   // "peps/10", "combine-two/0", "mutate", ...
  /// Enumerate only: the predicates, for the reference warm-up and the
  /// atom counts.
  std::vector<std::string> predicates;
};

/// One request slot in a connection's stream. Open loop: due `at_ns` after
/// the phase starts. Closed loop: `at_ns` is unused.
struct Op {
  uint64_t at_ns = 0;
  uint32_t body = 0;
};

struct Phase {
  std::string name;
  double rate = 0;       // offered requests/s over the open-loop streams
  double seconds = 0;    // schedule length (open) or run length (closed)
  std::vector<std::vector<Op>> streams;  // one per connection
  std::vector<Loop> loops;               // one per stream
};

/// What a workload run checks its responses against.
enum class CheckMode {
  kExactBytes,      // every read equals the reference bytes (warm reads)
  kSampleNoStats,   // a seeded sample equals the reference, "stats" blanked
  kReadYourWrites,  // epochs monotone; final probes equal a rebuilt session
};

struct Plan {
  std::string workload;
  uint64_t seed = 0;
  bool storage = false;
  CheckMode check = CheckMode::kExactBytes;
  std::vector<Body> bodies;
  /// Enumerate body that materializes every leaf the hot set needs (empty:
  /// no warm-up, the workload starts cold).
  std::string warmup;
  std::vector<Phase> phases;
  /// Bodies sent after the timed phases on connection 0 (mixed_rw probes).
  std::vector<uint32_t> probes;
  /// p99 limit of the rate ladder (hot_read "rung" phases), milliseconds.
  double latency_limit_ms = 0;
  size_t population = 0;
  size_t hot_set = 0;
  size_t warm_leaves = 0;
  double median_atoms = 0;
};

/// Builds the plan for `workload` ("hot_read", "cold_tail", "mixed_rw").
/// `seconds` is the measured length of the run.
hypre::Result<Plan> BuildPlan(const std::string& workload, uint64_t seed,
                              double seconds,
                              const std::vector<Profile>& population);

/// One enumerate body that materializes the leaves of all `predicates` in
/// a single executor pass: combine-two with a probe budget of one stops
/// after its first generation, so the request costs the pass and little
/// else. `leaves` receives the number of distinct predicates.
std::string WarmupBody(const std::vector<std::string>& predicates,
                       size_t* leaves);

/// Replaces the value of the top-level "stats" object with {} so responses
/// from engines with different cache histories compare on results only.
std::string BlankStats(const std::string& body);
/// Replaces the top-level "epoch" value with 0.
std::string BlankEpoch(const std::string& body);

/// Reads an integer field `"name":N` from a response body (first match).
bool ScanInt(const std::string& body, const char* name, int64_t* out);

}  // namespace servebench
