// Session: the multi-request facade over the probe stack.
//
// A Session owns (or borrows) one Database and serves any number of
// EnumerationRequests against it. Per (base query, key column) it keeps ONE
// ProbeEngine with its interned universe, leaf cache, and delta subsystem,
// so consecutive requests share universe interning and leaf prefetch
// instead of rebuilding them per call, and every consumer goes through one
// versioned read path:
//
//   request ──▶ FindAlgorithm (by name, in the constant kAlgorithms table)
//           ──▶ engine cache [(base SQL, key column) → ProbeEngine]
//           ──▶ Refresh(): journal drained, epoch pinned for this request
//           ──▶ bulk leaf prefetch over the request's preference leaves
//           ──▶ algorithm run (budget + sinks wired through)
//           ──▶ result {records/top_k, ProbeStats delta, epoch, truncated}
//
// Thread model: single writer, many readers — concurrent Enumerate()
// calls from any number of threads are safe and see consistent snapshots.
//
//  * READ side. Enumerate()/GetEngine()/Refresh() may be called from any
//    thread at any time. Each request takes a refcounted EPOCH PIN on its
//    engine (ProbeEngine::PinEpoch): while any pin is held the engine's
//    interned state is immutable — a concurrent Refresh defers the journal
//    suffix instead of resizing bitmaps under the run, and applies it when
//    the last reader drains. A request with request.refresh = true drains
//    the journal first (read-your-writes), which reads base tables, so it
//    belongs to the WRITE side below; a request with refresh = false is a
//    PURE reader: it never touches tables or storage state, making it safe
//    even against a concurrent writer mid-fsync.
//  * WRITE side. Base-table mutations, refresh-bearing requests,
//    Session::Refresh(), and every storage operation (AttachStorage /
//    SaveSnapshot / CommitJournal) must be serialized with EACH OTHER by
//    the caller — one writer thread, or an external lock. They need no
//    coordination with the read side: that is what the epoch pins and the
//    internal locks below provide. SaveSnapshot() is the only checkpoint
//    path; the session runs no thread of its own for storage.
//
// Internal synchronization (lock order, outermost first — see also the
// epoch-pin section in probe_engine.h and the concurrency section of
// ARCHITECTURE.md):
//   storage_mu_   — serializes the three storage entry points against each
//                   other; the request path never takes it
//   engines_mu_   — shared_mutex over the engine cache: shared for
//                   lookup/iteration, unique only for first-touch insert
//   pool_mu_      — one-time creation of the shared TaskPool (published
//                   through an atomic so readers never take it)
//   per-engine    — ProbeEngine's refresh_mu_ then cache_mu_
//
// A session owns ONE work-stealing parallel::TaskPool (created lazily on
// the first request that asks for more than one probe thread), attaches it
// to every cached engine's allocation paths once, and injects it into each
// request's resolved ProbeOptions — all batches of all requests share a
// single set of persistent, parked-when-idle workers. Concurrent requests
// also pass the AdmissionScheduler (see api/scheduler.h): strict-FIFO
// admission under a configurable concurrency cap and a bound on summed
// in-flight probe budgets; both caps default to unlimited.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "hypre/api/enumeration.h"
#include "hypre/api/scheduler.h"
#include "hypre/parallel/task_pool.h"
#include "hypre/probe_engine.h"
#include "hypre/storage/store.h"
#include "reldb/database.h"

namespace hypre {
namespace api {

class Session {
 public:
  /// \brief Session over a borrowed database (must outlive the session).
  explicit Session(const reldb::Database* db) : db_(db) {}
  /// \brief Session that owns its database.
  explicit Session(std::unique_ptr<reldb::Database> db)
      : owned_db_(std::move(db)), db_(owned_db_.get()) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// \brief Reopens a session from a storage directory: loads the snapshot,
  /// replays the write-ahead journal tail, rebuilds every persisted engine
  /// (dictionary, leaf cache, delta cursor) and attaches the store for
  /// further checkpoints. Fails closed — on any corruption no session is
  /// returned and the directory is left untouched. Requires a session that
  /// OWNS its database, which this constructor arranges.
  static Result<std::unique_ptr<Session>> OpenFromSnapshot(
      const std::string& dir, const storage::StorageOptions& options = {});

  /// \brief Runs one enumeration request end to end: algorithm lookup,
  /// engine-cache lookup, epoch pinning, leaf prefetch, the algorithm
  /// itself, and the per-request statistics delta. With no probe budget the
  /// records/tuples are byte-identical to calling the algorithm's direct
  /// entry point on an equivalent engine.
  Result<EnumerationResult> Enumerate(const EnumerationRequest& request);

  /// \brief The cached engine for (base_query, key_column), created on
  /// first use. Exposed for consumers outside the six algorithms (ranking,
  /// skyline, metrics) so they share the same engines the requests warm.
  Result<core::ProbeEngine*> GetEngine(const reldb::Query& base_query,
                                       const std::string& key_column);

  /// \brief Catches every cached engine up with the database's mutation
  /// journal. Returns the highest resulting epoch (0 when no engine is
  /// cached yet). Individual requests with request.refresh (the default)
  /// do this for their own engine automatically. Never blocks on in-flight
  /// enumerations: an engine with readers pinned defers its journal suffix
  /// (see ProbeEngine::Refresh).
  Result<uint64_t> Refresh();

  /// \brief Algorithm names (sorted) — what `algorithm` accepts.
  std::vector<std::string> Algorithms() const {
    std::vector<std::string> names;
    for (const Algorithm& algorithm : kAlgorithms) {
      names.emplace_back(algorithm.name);
    }
    return names;
  }

  const reldb::Database* db() const { return db_; }
  /// \brief Mutable database access; null unless the session owns it.
  reldb::Database* mutable_db() { return owned_db_.get(); }
  /// \brief Number of distinct (base query, key column) engines cached.
  size_t num_cached_engines() const {
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    return engines_.size();
  }

  /// \brief The session's work-stealing pool, created (auto-sized) on first
  /// use — safe to race; exactly one pool is ever built. Requests that
  /// leave ProbeOptions::pool null and ask for more than one thread run
  /// their batches here.
  parallel::TaskPool* task_pool();
  /// \brief True once a request has forced pool creation.
  bool has_task_pool() const {
    return pool_ptr_.load(std::memory_order_acquire) != nullptr;
  }

  /// \brief The request admission scheduler. Unlimited by default;
  /// configure with scheduler().set_options({...}) to cap concurrent
  /// requests and in-flight probe spend. Thread-safe.
  AdmissionScheduler& scheduler() { return scheduler_; }

  // --- Durable storage ------------------------------------------------------

  /// \brief Attaches a FRESH storage directory and writes the initial
  /// checkpoint (snapshot + fresh write-ahead log) covering the session's
  /// current state. Refuses a directory that already holds a snapshot —
  /// overwriting another session's durable state would be silent data
  /// loss; reopen such a directory with OpenFromSnapshot instead. Requires
  /// a session that owns its database (the store truncates the journal,
  /// which a borrowed database's other consumers would not survive).
  /// Subsequent mutations become durable via CommitJournal() (WAL group
  /// commit) and are folded into the snapshot by SaveSnapshot(); nothing
  /// checkpoints implicitly.
  Status AttachStorage(const std::string& dir,
                       const storage::StorageOptions& options = {});

  /// \brief Refreshes every cached engine, then writes a full checkpoint:
  /// journal spill, snapshot (atomic rename), WAL rotation, in-memory
  /// journal truncation. Restarting from the result is warm — no CSV
  /// re-parse, no universe re-intern, no leaf re-materialization.
  Status SaveSnapshot();

  /// \brief Spills the journal tail to the write-ahead log and fsyncs it —
  /// the group-commit point making recent mutations durable without the
  /// cost of a full snapshot.
  Status CommitJournal();

  bool has_storage() const { return store_ != nullptr; }
  /// \brief The attached store (null when not storage-backed).
  storage::EngineStore* store() { return store_.get(); }

 private:
  /// Captures every cached engine's durable state, sorted by cache key so
  /// snapshot bytes are deterministic.
  std::vector<storage::SnapshotEngineState> CaptureEngineStates() const;
  /// RefreshBlocking on every cached engine — the checkpoint paths need
  /// every journal suffix APPLIED (a deferred refresh would leave an engine
  /// cursor behind the snapshot sequence), so this waits for in-flight
  /// readers to drain instead of deferring. Returns the highest epoch.
  Result<uint64_t> RefreshAllBlocking();
  /// The request pipeline behind Enumerate() (which only adds admission
  /// and the optional trace installation around it).
  Status EnumerateInternal(const EnumerationRequest& request,
                           EnumerationResult* result);

  std::unique_ptr<reldb::Database> owned_db_;
  const reldb::Database* db_;
  // Lazily created shared runtime for all requests (see task_pool()).
  // pool_mu_ serializes the one-time construction; pool_ptr_ republishes
  // the pointer so the request path reads it with one atomic load.
  std::mutex pool_mu_;
  std::unique_ptr<parallel::TaskPool> pool_;
  std::atomic<parallel::TaskPool*> pool_ptr_{nullptr};
  // (base query SQL + key column) -> the one engine all requests over that
  // query share. engines_mu_ guards the MAP (shared for lookup, unique for
  // first-touch insert); entries are unique_ptrs, so ProbeEngine pointers
  // handed out under the shared lock stay valid unlocked for the session's
  // lifetime (entries are never erased).
  mutable std::shared_mutex engines_mu_;
  std::unordered_map<std::string, std::unique_ptr<core::ProbeEngine>>
      engines_;
  // Request admission (FIFO, concurrency + probe-budget caps).
  AdmissionScheduler scheduler_;
  // Serializes the storage entry points (AttachStorage, SaveSnapshot,
  // CommitJournal) against each other. Ordered BEFORE engines_mu_ and the
  // engines' refresh mutexes; Enumerate never takes it.
  std::mutex storage_mu_;
  // Durable storage backend; null until AttachStorage/OpenFromSnapshot.
  // The pointer is written once under storage_mu_ before concurrent use.
  std::unique_ptr<storage::EngineStore> store_;
};

}  // namespace api
}  // namespace hypre
