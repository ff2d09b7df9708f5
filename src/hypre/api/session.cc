#include "hypre/api/session.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"
#include "sqlparse/select_parser.h"

namespace hypre {
namespace api {

namespace {

#if HYPRE_TELEMETRY_ENABLED
/// Folds one finished request's ProbeStats delta into the registry — ONE
/// counter add per field per request, so the probe hot path itself never
/// touches the registry and the numbers exactly match the per-request
/// stats contract (no double counting between layers).
void FoldRequestStats(const core::ProbeStats& stats, uint64_t request_us) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter* requests = registry.GetCounter(
      "hypre_api_requests_total", "api", "Enumeration requests served");
  static telemetry::Histogram* latency = registry.GetHistogram(
      "hypre_api_request_us", "api", "Microseconds per enumeration request");
  static telemetry::Counter* leaf_queries = registry.GetCounter(
      "hypre_engine_leaf_queries_total", "engine",
      "Relational queries run to materialize leaf bitmaps");
  static telemetry::Counter* cache_hits = registry.GetCounter(
      "hypre_engine_cache_hits_total", "engine",
      "Probes answered from the memoized count cache");
  static telemetry::Counter* batches = registry.GetCounter(
      "hypre_prober_batches_total", "prober", "Batch kernel invocations");
  static telemetry::Counter* batched_probes = registry.GetCounter(
      "hypre_prober_batched_probes_total", "prober",
      "Probes answered through batch kernels");
  static telemetry::Counter* shard_passes = registry.GetCounter(
      "hypre_prober_shard_passes_total", "prober",
      "Shard passes executed by batch kernels");
  requests->Increment();
  latency->Record(request_us);
  leaf_queries->Add(stats.num_leaf_queries);
  cache_hits->Add(stats.num_cache_hits);
  batches->Add(stats.num_batches);
  batched_probes->Add(stats.num_batched_probes);
  shard_passes->Add(stats.num_shard_passes);
}
#endif

}  // namespace

Result<core::ProbeEngine*> Session::GetEngine(
    const reldb::Query& base_query, const std::string& key_column) {
  if (base_query.from.empty()) {
    return Status::InvalidArgument("request has no base query (FROM empty)");
  }
  if (key_column.empty()) {
    return Status::InvalidArgument("request has no key column");
  }
  // The rendered SQL is a stable identity for the query skeleton; the key
  // column joins it because one base query can be probed under different
  // tuple identities.
  std::string key = base_query.ToSql();
  key += '\n';
  key += key_column;
  {
    // Fast path: every request after the first over a query spec finds its
    // engine under the shared lock, so concurrent readers never serialize.
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    auto it = engines_.find(key);
    if (it != engines_.end()) {
      telemetry::TraceNote("api", "enhancer_cache_hit");
      return it->second.get();
    }
  }
  std::unique_lock<std::shared_mutex> lock(engines_mu_);
  // Re-check: another first-touch request may have built the engine while
  // this one upgraded its lock — find-or-create must resolve to ONE engine.
  auto it = engines_.find(key);
  if (it != engines_.end()) {
    telemetry::TraceNote("api", "enhancer_cache_hit");
    return it->second.get();
  }
  telemetry::TraceNote("api", "enhancer_cache_miss");
  it = engines_
           .emplace(std::move(key), std::make_unique<core::ProbeEngine>(
                                        db_, base_query, key_column))
           .first;
  // A pool created before this engine existed missed it in its attach
  // sweep; attaching under the unique lock pairs with that sweep's shared
  // lock, so exactly one of the two paths always sees the other's work.
  if (parallel::TaskPool* pool = pool_ptr_.load(std::memory_order_acquire)) {
    it->second->set_task_pool(pool);
  }
  return it->second.get();
}

parallel::TaskPool* Session::task_pool() {
  if (parallel::TaskPool* pool = pool_ptr_.load(std::memory_order_acquire)) {
    return pool;
  }
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (!pool_) {
    pool_ = std::make_unique<parallel::TaskPool>();
    // Publish BEFORE the attach sweep: an engine inserted concurrently
    // either lands in the sweep below or observes the published pointer in
    // GetEngine — never neither.
    pool_ptr_.store(pool_.get(), std::memory_order_release);
    std::shared_lock<std::shared_mutex> engines(engines_mu_);
    for (auto& [key, engine] : engines_) {
      engine->set_task_pool(pool_.get());
    }
  }
  return pool_.get();
}

Result<uint64_t> Session::Refresh() {
  std::shared_lock<std::shared_mutex> lock(engines_mu_);
  uint64_t epoch = 0;
  for (auto& [key, engine] : engines_) {
    HYPRE_ASSIGN_OR_RETURN(uint64_t e, engine->Refresh());
    epoch = std::max(epoch, e);
  }
  return epoch;
}

Result<uint64_t> Session::RefreshAllBlocking() {
  std::shared_lock<std::shared_mutex> lock(engines_mu_);
  uint64_t epoch = 0;
  for (auto& [key, engine] : engines_) {
    HYPRE_ASSIGN_OR_RETURN(uint64_t e, engine->RefreshBlocking());
    epoch = std::max(epoch, e);
  }
  return epoch;
}

std::vector<storage::SnapshotEngineState> Session::CaptureEngineStates()
    const {
  // Sorted by cache key so identical sessions write byte-identical
  // snapshots (the unordered_map's iteration order is not stable).
  std::map<std::string, const core::ProbeEngine*> ordered;
  {
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    for (const auto& [key, engine] : engines_) {
      ordered.emplace(key, engine.get());
    }
  }
  std::vector<storage::SnapshotEngineState> states;
  states.reserve(ordered.size());
  for (const auto& [key, engine] : ordered) {
    storage::SnapshotEngineState state;
    state.base_sql = engine->base_query().ToSql();
    state.key_column = engine->key_column();
    state.image = engine->CaptureSnapshotImage();
    states.push_back(std::move(state));
  }
  return states;
}

Status Session::AttachStorage(const std::string& dir,
                              const storage::StorageOptions& options) {
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  if (store_ != nullptr) {
    return Status::InvalidArgument("session already has storage attached");
  }
  if (owned_db_ == nullptr) {
    return Status::InvalidArgument(
        "AttachStorage requires a session that owns its database (the "
        "store truncates the mutation journal, which other consumers of a "
        "borrowed database would not survive)");
  }
  // Catch every engine up so the captured images all cover the same
  // journal sequence as the snapshot. Blocking: a deferred suffix would
  // leave an engine cursor behind the checkpoint sequence.
  HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, RefreshAllBlocking());
  (void)epoch;
  HYPRE_ASSIGN_OR_RETURN(std::unique_ptr<storage::EngineStore> store,
                         storage::EngineStore::Open(dir, options));
  if (store->HasSnapshot()) {
    return Status::InvalidArgument(
        "storage dir '" + dir + "' already holds a snapshot; open it with "
        "Session::OpenFromSnapshot, or point AttachStorage at a fresh "
        "directory (the initial checkpoint would overwrite the existing "
        "durable state)");
  }
  Status st = store->InitialCheckpoint(owned_db_.get(), CaptureEngineStates());
  if (!st.ok()) return st;
  store_ = std::move(store);
  return Status::OK();
}

Status Session::SaveSnapshot() {
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "session has no storage attached (AttachStorage first)");
  }
  // The refresh is blocking — every engine's journal suffix must be
  // APPLIED before its image is captured, so this waits for in-flight
  // readers to drain.
  HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, RefreshAllBlocking());
  (void)epoch;
  return store_->WriteCheckpoint(owned_db_.get(), CaptureEngineStates());
}

Status Session::CommitJournal() {
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "session has no storage attached (AttachStorage first)");
  }
  return store_->CommitJournal(*db_);
}

Result<std::unique_ptr<Session>> Session::OpenFromSnapshot(
    const std::string& dir, const storage::StorageOptions& options) {
  HYPRE_ASSIGN_OR_RETURN(std::unique_ptr<storage::EngineStore> store,
                         storage::EngineStore::Open(dir, options));
  HYPRE_ASSIGN_OR_RETURN(storage::SnapshotContents contents,
                         store->Recover());
  auto session = std::make_unique<Session>(std::move(contents.db));
  session->store_ = std::move(store);
  for (const storage::SnapshotEngineState& state : contents.engines) {
    // The persisted base SQL round-trips through the SELECT parser into
    // the same Query (and therefore the same engine cache key) it was
    // rendered from.
    auto stmt = sqlparse::ParseSelect(state.base_sql);
    if (!stmt.ok()) {
      return Status::Internal("snapshot engine base query '" +
                              state.base_sql +
                              "' failed to parse: " + stmt.status().message());
    }
    HYPRE_ASSIGN_OR_RETURN(
        core::ProbeEngine * engine,
        session->GetEngine(stmt.value().query, state.key_column));
    HYPRE_RETURN_NOT_OK(engine->RestoreSnapshotImage(state.image));
  }
  // Consume the replayed write-ahead-log tail so every restored engine is
  // current with the recovered database before the first request.
  HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, session->Refresh());
  (void)epoch;
  return session;
}

Result<EnumerationResult> Session::Enumerate(
    const EnumerationRequest& request) {
  // Admission gate: with default (unlimited) caps this is one uncontended
  // mutex round-trip; configured caps queue the request FIFO here, BEFORE
  // it takes an epoch pin or touches any engine state. A bounded queue or
  // an expired admission timeout sheds the request with
  // Status::Unavailable instead of blocking (the server's 429).
  std::optional<std::chrono::steady_clock::time_point> admission_deadline;
  if (request.admission_timeout_ms > 0) {
    admission_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(request.admission_timeout_ms);
  }
  HYPRE_ASSIGN_OR_RETURN(
      AdmissionScheduler::Ticket ticket,
      scheduler_.TryAdmit(request.probe_budget, admission_deadline));
  (void)ticket;
#if HYPRE_TELEMETRY_ENABLED
  if (request.trace) {
    EnumerationResult result;
    telemetry::Trace trace;
    {
      // The target installs a thread_local, so every TraceSpan opened under
      // EnumerateInternal — engine, prober, delta — lands in this request's
      // buffer with no plumbing. Both scopes must close before the trace
      // moves into the result (open spans hold its address).
      telemetry::ScopedTraceTarget target(&trace);
      telemetry::TraceSpan root("api", "enumerate");
      HYPRE_RETURN_NOT_OK(EnumerateInternal(request, &result));
    }
    result.trace = std::move(trace);
    return result;
  }
#endif
  EnumerationResult result;
  HYPRE_RETURN_NOT_OK(EnumerateInternal(request, &result));
  return result;
}

Status Session::EnumerateInternal(const EnumerationRequest& request,
                                  EnumerationResult* result) {
#if HYPRE_TELEMETRY_ENABLED
  auto request_start = std::chrono::steady_clock::now();
#endif
  HYPRE_ASSIGN_OR_RETURN(const Algorithm* algorithm,
                         FindAlgorithm(request.algorithm));
  HYPRE_ASSIGN_OR_RETURN(core::ProbeEngine * engine,
                         GetEngine(request.base_query, request.key_column));

  // Pin the epoch: the whole run probes one consistent snapshot. A
  // refresh-first pin (request.refresh, the default) drains the mutation
  // journal up front — unless other readers are already pinned, in which
  // case the suffix defers and this request joins them on the live epoch.
  // While the pin is held a concurrent Refresh cannot resize bitmaps out
  // from under the algorithm's handles.
  HYPRE_ASSIGN_OR_RETURN(core::ProbeEngine::EpochPin pin,
                         engine->PinEpoch(request.refresh));
  result->epoch = pin.epoch();

  // Per-request statistics: a thread_local collector, installed for the
  // prefetch + run scope, receives every probe counted on this thread and
  // folds the totals back into the engine's lifetime counters when it goes
  // out of scope. (Snapshot subtraction against the engine's lifetime
  // counters would double-count the moment two requests share an engine.)
  core::ProbeStats request_stats;
  core::ScopedProbeStatsCollector stats_collector(engine, &request_stats);

  // Every algorithm requires the list sorted descending by intensity; sort
  // a copy so callers can hand preferences in any order.
  std::vector<core::PreferenceAtom> atoms = request.preferences;
  core::SortByIntensityDesc(&atoms);

  // Resolve the request's runtime: if it asks for parallelism (num_threads
  // 0 = auto, or > 1) without naming a pool, inject the session's shared
  // TaskPool — one persistent set of workers serves every request. The
  // resolution lands ONLY in this request's ProbeOptions copy; the engine
  // itself got the pool attached once at creation (writing its atomic
  // per-request would thrash other in-flight requests' allocation paths).
  core::ProbeOptions probe_options = request.probe_options;
  if (probe_options.pool == nullptr && probe_options.num_threads != 1) {
    probe_options.pool = task_pool();
  }

  // Shared leaf prefetch: load every leaf the request's preferences reach
  // in ONE executor pass. The engine's leaf cache persists across requests,
  // so later requests over the same query spec dedup to a no-op here.
  if (!atoms.empty()) {
    std::vector<reldb::ExprPtr> exprs;
    exprs.reserve(atoms.size());
    for (const core::PreferenceAtom& atom : atoms) exprs.push_back(atom.expr);
    HYPRE_RETURN_NOT_OK(engine->PrefetchLeaves(exprs));
  }

  core::ProbeBudget budget(request.probe_budget);
  EnumerationContext ctx;
  ctx.engine = engine;
  ctx.preferences = &atoms;
  ctx.request = &request;
  ctx.probe_options = probe_options;
  if (request.probe_budget > 0) ctx.control.budget = &budget;
  if (request.record_sink) ctx.control.record_sink = &request.record_sink;
  if (request.tuple_sink) ctx.control.tuple_sink = &request.tuple_sink;
  ctx.control.truncated = &result->truncated;

  {
    telemetry::TraceSpan span("api", "run_algorithm");
    HYPRE_RETURN_NOT_OK(algorithm->run(ctx, result));
  }
  result->stats = request_stats;
  HYPRE_TELEMETRY_STMT(FoldRequestStats(
      result->stats,
      uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - request_start)
                   .count())));
  // Scheduler counters are cumulative; mirroring them after each request
  // keeps the registry's view current without touching the probe path.
  if (parallel::TaskPool* pool = pool_ptr_.load(std::memory_order_acquire)) {
    HYPRE_TELEMETRY_STMT(pool->PublishStats());
    (void)pool;
  }
  return Status::OK();
}

}  // namespace api
}  // namespace hypre
