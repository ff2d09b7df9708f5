// Bitmap-backed probe engine: preference-aware query enhancement
// (dissertation §4.6) with group-level predicate evaluation.
//
// The enhanced query is the base SELECT with a (combined) preference
// predicate spliced into its WHERE clause (ProbeEngine::Enhance); the
// engine counts or collects the keys that match it.
//
// Matching semantics — group-level (existential). The dissertation's
// enhanced queries run over `dblp JOIN dblp_author` and freely AND two
// author predicates (`dblp_author.aid=2222 AND dblp_author.aid=4787`,
// §5.3.1) expecting papers co-authored by both. On a per-joined-row basis
// that predicate is unsatisfiable (each joined row carries ONE aid), so the
// intended meaning is per *key* (per paper): a key matches a leaf predicate
// if at least one of its joined rows does, and AND/OR/NOT combine those key
// sets:
//   leaf      -> distinct keys of the base query filtered by the leaf
//   AND       -> set intersection
//   OR        -> set union
//   NOT       -> complement against the base query's key universe
// For single-table leaf predicates this coincides with row-level SQL
// semantics, because the key determines the row of each base table.
//
// The combination algorithms (PEPS, TA, exhaustive, combine-two,
// partially-combine-all, bias-random) issue thousands of count/key probes
// against the same base query. The engine makes those probes cheap:
//
//  1. Universe interning. The base query's distinct keys are scanned once
//     and interned into dense ids [0, N) through the executor's
//     dense-dictionary hook. Every key set is thereafter a word-packed
//     KeyBitmap of N bits.
//  2. Leaf bitmaps. Each leaf predicate runs against the database exactly
//     once (base query AND leaf, streaming dense ids straight into a
//     bitmap); the bitmap is cached under a canonical predicate key.
//  3. Set algebra. Group-level AND/OR/NOT (the semantics above) reduce to
//     word-wise AND/OR/ANDNOT, and CountMatching to popcount.
//
// Cache keys are canonical, not rendered SQL: commutative AND/OR children
// are sorted, mirrored comparisons (literal op column) are flipped, and IN
// lists are sorted, so structurally identical predicates that render
// differently share cache entries.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "hypre/key_bitmap.h"
#include "reldb/database.h"
#include "reldb/executor.h"
#include "reldb/expr.h"

namespace hypre {
namespace parallel {
class TaskPool;
}  // namespace parallel

namespace core {

class DeltaEngine;
struct DeltaOptions;

/// \brief One snapshot of every probe counter the engine and the batch
/// layer maintain — the consolidated statistics record reported per
/// request by the API layer (api::EnumerationResult). Engine counters are
/// monotone over an engine's lifetime; per-request deltas are collected
/// exactly through a ScopedProbeStatsCollector (snapshot subtraction is
/// only valid when one request at a time touches the engine).
struct ProbeStats {
  /// Leaf-bitmap materializations against the database — one per DISTINCT
  /// canonical leaf per epoch rebuild (see the contract in ProbeEngine).
  size_t num_leaf_queries = 0;
  /// Probes answered from cached state with no DB work (memo hits plus
  /// every combination probe answered by the scalar or batch prober).
  size_t num_cache_hits = 0;
  /// Batch frontiers evaluated by BatchProber (CountBatch, CountExtensions,
  /// CountPairs, EvalBatch calls that reached a kernel).
  size_t num_batches = 0;
  /// Probes answered inside those batches (sum of frontier sizes); always
  /// <= num_cache_hits.
  size_t num_batched_probes = 0;
  /// Blocked shard passes the batch kernels walked (shards per batch,
  /// summed) — the unit the thread split and a future node split divide.
  size_t num_shard_passes = 0;

  ProbeStats operator-(const ProbeStats& earlier) const {
    return ProbeStats{num_leaf_queries - earlier.num_leaf_queries,
                      num_cache_hits - earlier.num_cache_hits,
                      num_batches - earlier.num_batches,
                      num_batched_probes - earlier.num_batched_probes,
                      num_shard_passes - earlier.num_shard_passes};
  }
};

namespace internal {
/// The thread's active per-request ProbeStats sink slot. Constant-initialized
/// thread_local behind an inline accessor so the per-probe counting sites
/// compile down to one TLS load and a branch — an out-of-line call here costs
/// double-digit percent on the warm probe path.
inline ProbeStats*& ActiveProbeStatsSlot() {
  static thread_local ProbeStats* slot = nullptr;
  return slot;
}
}  // namespace internal

/// \brief The ProbeStats sink installed on this thread, or null. While a
/// sink is installed, every counting site in the engine and the batch layer
/// adds to the sink ONLY (a plain thread-local add, off the atomics); the
/// collector folds the request's totals back into the engine-lifetime
/// counters exactly once on destruction. This keeps per-request accounting
/// exact without subtracting engine-wide snapshots — the subtraction trick
/// double-counts (or goes negative) the moment two requests share an
/// engine — and keeps the per-probe cost at one TLS load.
inline ProbeStats* ActiveProbeStats() {
  return internal::ActiveProbeStatsSlot();
}

class ProbeEngine;

/// \brief Installs `sink` as this thread's per-request ProbeStats collector
/// for the scope, restoring whatever was active before on destruction (like
/// telemetry::ScopedTraceTarget). The collector is thread_local: all probe
/// accounting happens on the request thread (pool workers only zero and
/// scan bitmaps), so one collector per request is exact even when many
/// requests share one engine. On destruction the collected stats are folded
/// into `engine`'s lifetime counters (on every exit path, including
/// errors); until then the engine's counters lag by the in-flight request.
class ScopedProbeStatsCollector {
 public:
  ScopedProbeStatsCollector(const ProbeEngine* engine, ProbeStats* sink);
  ~ScopedProbeStatsCollector();
  ScopedProbeStatsCollector(const ScopedProbeStatsCollector&) = delete;
  ScopedProbeStatsCollector& operator=(const ScopedProbeStatsCollector&) =
      delete;

 private:
  const ProbeEngine* engine_;
  ProbeStats* sink_;
  ProbeStats* previous_;
};

/// \brief A serializable image of one engine's interned state — what the
/// durable storage layer persists per engine so a restarted process resumes
/// with a warm universe and leaf cache instead of re-interning. Captured by
/// ProbeEngine::CaptureSnapshotImage() and applied to a freshly constructed
/// engine by RestoreSnapshotImage().
struct EngineSnapshotImage {
  /// False when the engine never interned (nothing else is meaningful and
  /// restore is a no-op — the universe interns lazily on first probe).
  bool universe_ready = false;
  uint64_t epoch = 0;
  /// The delta subsystem's journal cursor at capture time; a restored
  /// engine resumes consuming the mutation journal here.
  uint64_t journal_cursor = 0;
  /// (key value, live) in dense-id order. The live flags are the universe
  /// bitmap; dead entries are tombstoned ids whose stale value must stay
  /// addressable without shadowing a live key.
  std::vector<std::pair<reldb::Value, bool>> keys;
  /// Tombstoned dense ids available for recycling, in free-list order.
  std::vector<uint32_t> free_ids;
  struct Leaf {
    /// The predicate rendered by Expr::ToString() — parse-compatible with
    /// sqlparse::ParsePredicate, so the expression (which the delta engine
    /// needs for re-evaluation) survives the round trip.
    std::string predicate_sql;
    std::vector<uint64_t> words;  // bitmap words, num_bits = keys.size()
  };
  std::vector<Leaf> leaves;
};

class ProbeEngine {
 public:
  /// \param db database to run against (must outlive the engine)
  /// \param base_query query skeleton (FROM/JOINs; an existing WHERE acts as
  ///        a hard constraint that every probe keeps)
  /// \param key_column the tuple identity column (e.g. "dblp.pid")
  ProbeEngine(const reldb::Database* db, reldb::Query base_query,
              std::string key_column);
  ~ProbeEngine();
  ProbeEngine(const ProbeEngine&) = delete;
  ProbeEngine& operator=(const ProbeEngine&) = delete;

  /// \brief Canonical cache key for a predicate: stable under whitespace,
  /// commutative AND/OR child order, IN-list order, and mirrored
  /// comparisons.
  static std::string CanonicalKey(const reldb::Expr& expr);

  /// \brief The base query with `predicate` ANDed into its WHERE clause —
  /// the literal SQL rewriting of §4.6 (null = the base query unchanged).
  /// Leaf materialization and the delta engine's key recompute run exactly
  /// this query.
  reldb::Query Enhance(const reldb::ExprPtr& predicate) const;

  /// \brief Number of distinct keys matching `predicate` (null = the whole
  /// universe) under group-level semantics. Memoized.
  Result<size_t> CountMatching(const reldb::ExprPtr& predicate) const;

  /// \brief The matching keys, sorted by the Value total order.
  Result<std::vector<reldb::Value>> MatchingKeys(
      const reldb::ExprPtr& predicate) const;

  /// \brief Evaluates `predicate` (null = universe) to a bitmap handle over
  /// the dense key ids. The algorithms hold these and compose them with
  /// KeyBitmap ops instead of re-probing.
  Result<KeyBitmap> EvalBitmap(const reldb::ExprPtr& predicate) const;

  /// \brief Bulk-populates the leaf cache for every leaf predicate reachable
  /// from `exprs` (AND/OR/NOT nodes are walked; null entries are skipped) in
  /// ONE pass over the executor: the base query runs once and every pending
  /// leaf is evaluated against each matching row. After the call, probes
  /// over these predicates do pure bitmap algebra — no per-probe DB work.
  /// Counts one leaf query per distinct uncached leaf (see the statistics
  /// contract below). Idempotent; already-cached leaves are not re-run.
  Status PrefetchLeaves(const std::vector<reldb::ExprPtr>& exprs) const;

  /// \brief Bitmap with every universe key set. Valid until the engine dies.
  Result<const KeyBitmap*> UniverseBitmap() const;

  /// \brief Size of the dense-id space (forces interning). This INCLUDES
  /// tombstoned ids awaiting recycling, so after deletes it may exceed the
  /// live key count — use CountMatching(nullptr) for the latter. Callers
  /// sizing bitmaps over dense ids (e.g. EvalBatch outputs) want exactly
  /// this value.
  Result<size_t> UniverseSize() const;

  /// \brief The key Value for a dense id. Only valid after any probe or
  /// UniverseSize()/UniverseBitmap() call.
  const reldb::Value& KeyAt(uint32_t id) const { return dict_.value(id); }

  /// \brief The keys of a bitmap, sorted by the Value total order
  /// (deterministic, same order MatchingKeys uses).
  std::vector<reldb::Value> KeysOf(const KeyBitmap& bits) const;

  const std::string& key_column() const { return key_column_; }
  const reldb::Query& base_query() const { return base_query_; }
  const reldb::Database* db() const { return db_; }

  // --- Incremental maintenance (delta subsystem) --------------------------
  //
  // The engine is a snapshot of the database: cached state (the universe
  // and previously materialized leaves) keeps answering against the state
  // of the last Refresh (or interning) even after the base tables mutate.
  // A leaf FIRST touched after a mutation reads current table rows, so the
  // contract for exact snapshots is: mutate, Refresh(), then probe —
  // Refresh() also reconciles any such mixed-state leaf exactly.
  // Refresh() consumes the database's mutation journal and patches the
  // interned universe and every cached leaf bitmap in place — dense-id
  // recycling for deleted keys, tail growth for new keys, per-epoch delta
  // evaluation restricted to the mutated rows — falling back to a full
  // epoch rebuild once tombstones pass the configured threshold. See
  // delta_engine.h for the mechanics.
  //
  // EPOCH PINS make that safe under concurrent readers: an in-flight
  // enumeration holds a refcounted pin on the engine's epoch, and journal
  // application — which resizes, remaps, or drops the very bitmaps the
  // algorithms hold handles to — runs ONLY while the pin count is zero.
  // Refresh() called with readers pinned returns promptly with the current
  // epoch and marks the journal suffix DEFERRED; the suffix is applied by
  // the next refresh-bearing entry point that finds the pin count at zero
  // (a refresh-first PinEpoch, another Refresh(), or RefreshBlocking()).
  // Readers therefore never block a refresh and a refresh never invalidates
  // a reader — the versioned-read discipline of Berkholz et al.'s
  // FO+MOD-under-updates pattern, with the "old version" being the current
  // bitmaps kept alive until the last reader drains.

  /// \brief A refcounted hold on the engine's current epoch. While any pin
  /// is alive the interned state (universe, dense ids, cached leaf bitmaps,
  /// key order) is immutable — journal application is deferred — so bitmap
  /// handles taken under the pin stay valid for the pin's lifetime.
  /// Move-only RAII; destruction (or Release()) drops the hold.
  class EpochPin {
   public:
    EpochPin() = default;
    EpochPin(EpochPin&& other) noexcept
        : engine_(other.engine_), epoch_(other.epoch_) {
      other.engine_ = nullptr;
    }
    EpochPin& operator=(EpochPin&& other) noexcept {
      if (this != &other) {
        Release();
        engine_ = other.engine_;
        epoch_ = other.epoch_;
        other.engine_ = nullptr;
      }
      return *this;
    }
    EpochPin(const EpochPin&) = delete;
    EpochPin& operator=(const EpochPin&) = delete;
    ~EpochPin() { Release(); }

    /// \brief Drops the hold early (idempotent).
    void Release() {
      if (engine_ != nullptr) {
        engine_->Unpin();
        engine_ = nullptr;
      }
    }
    bool pinned() const { return engine_ != nullptr; }
    /// \brief The epoch this pin froze (0 for an empty pin).
    uint64_t epoch() const { return epoch_; }

   private:
    friend class ProbeEngine;
    EpochPin(const ProbeEngine* engine, uint64_t epoch)
        : engine_(engine), epoch_(epoch) {}
    const ProbeEngine* engine_ = nullptr;
    uint64_t epoch_ = 0;
  };

  /// \brief Takes a refcounted hold on the engine's epoch for an in-flight
  /// enumeration. With `refresh_first` and no other reader pinned, the
  /// journal suffix (including any deferred one) is applied before pinning
  /// — the read-your-writes path a mutating client expects. With
  /// `refresh_first` and readers already pinned, the refresh is DEFERRED
  /// (counted in num_deferred_refreshes) and the current epoch is pinned
  /// instead — the request probes the live snapshot rather than blocking
  /// behind the readers. Refresh-first pinning reads base tables when the
  /// journal is non-empty, so it belongs to the write side of the session's
  /// single-writer/multi-reader contract (see api/session.h).
  Result<EpochPin> PinEpoch(bool refresh_first);

  /// \brief Applies all journal entries recorded since the last Refresh (or
  /// since universe interning) and advances the epoch if anything relevant
  /// changed. Returns the resulting epoch. NEVER blocks on readers: if any
  /// epoch pin is held, the application is deferred (the current epoch is
  /// returned and the suffix applies when the pins drain).
  Result<uint64_t> Refresh();

  /// \brief Refresh() that WAITS for in-flight readers to drain and then
  /// applies the journal suffix unconditionally — the checkpoint/snapshot
  /// path, which must not capture state whose journal cursor lags the
  /// truncation point. Never call while holding an EpochPin on this engine
  /// (self-deadlock).
  Result<uint64_t> RefreshBlocking();

  /// \brief Monotone counter of applied refreshes; probers revalidate their
  /// cached bitmap handles against this.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// \brief True when a Refresh() was requested while readers were pinned
  /// and its journal suffix has not been applied yet. Checkpoints skip
  /// their round when this is set (the engine cursor lags the journal).
  bool has_deferred_refresh() const {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    return refresh_deferred_;
  }
  /// \brief Refresh requests deferred because readers held the epoch.
  uint64_t num_deferred_refreshes() const {
    return num_deferred_refreshes_.load(std::memory_order_relaxed);
  }

  /// \brief True if any interned key is currently tombstoned (deleted from
  /// the universe but its dense id not yet recycled). When true, cached leaf
  /// bitmaps may carry stale bits at tombstoned ids and every probe must
  /// AND the live mask (UniverseBitmap) — the engine's own evaluation and
  /// the combination/batch probers all do.
  bool has_tombstones() const { return num_tombstones_ > 0; }
  size_t num_tombstones() const { return num_tombstones_; }

  // --- Durable storage hooks ----------------------------------------------

  /// \brief Captures the interned state (dictionary, live mask, free ids,
  /// leaf cache, epoch, journal cursor) for persistence. Cheap relative to
  /// re-interning; never touches the database.
  EngineSnapshotImage CaptureSnapshotImage() const;

  /// \brief Applies a captured image to this engine. Only valid on a
  /// freshly constructed engine (nothing interned yet); the image's leaf
  /// SQL is re-parsed, so a malformed image fails closed without mutating
  /// the engine's probe-visible state.
  Status RestoreSnapshotImage(const EngineSnapshotImage& image);

  /// \brief The delta subsystem (journal cursor, epoch statistics,
  /// compaction counters).
  const DeltaEngine& delta_engine() const { return *delta_; }
  /// \brief Tunes the delta subsystem (e.g. the tombstone ratio that forces
  /// an epoch rebuild).
  void set_delta_options(const DeltaOptions& options);

  /// \brief Attaches a work-stealing pool to the engine's allocation paths:
  /// leaf and prefetch bitmaps are then zeroed in parallel on the pool
  /// (first-touch NUMA placement — each page lands on the node of the
  /// worker that later probes it), and the delta layer's tail-growth resize
  /// fans the per-leaf work out. The pool is not owned and must outlive the
  /// engine's probe calls; null detaches. The field is atomic so a session
  /// may attach its lazily created pool while other requests are probing;
  /// per-REQUEST thread caps belong in ProbeOptions, not here (attachment
  /// is engine-lifetime, set once).
  void set_task_pool(parallel::TaskPool* pool) {
    pool_.store(pool, std::memory_order_release);
  }
  parallel::TaskPool* task_pool() const {
    return pool_.load(std::memory_order_acquire);
  }

  // Probe statistics contract:
  //  * num_leaf_queries counts leaf-bitmap materializations against the
  //    database, exactly one per DISTINCT canonical leaf — whether the leaf
  //    was loaded by its own query (LeafBitmap miss) or as part of one bulk
  //    PrefetchLeaves pass. The one-time universe interning scan is not
  //    counted, and neither are the delta passes of an incremental
  //    Refresh(); an epoch-compaction rebuild clears the leaf cache, so the
  //    "one query per distinct leaf" accounting restarts per epoch rebuild.
  //    This holds for scalar, batched, and prefetched probing alike.
  //  * num_cache_hits counts probes answered from cached state with no DB
  //    work: CountMatching memo hits, plus every combination probe answered
  //    by CombinationProber::Count or a BatchProber batch (one per
  //    combination/candidate/pair in the frontier, consumed by the caller
  //    or not). Raw KeyBitmap algebra done by callers outside the probe
  //    layer is counted only where the caller reports it through
  //    NoteProbesAnswered (bias-random's chain extensions do) — the
  //    per-call accounting is the contract.

  /// \brief One consolidated snapshot of every probe counter (leaf queries,
  /// cache hits, batch layer activity) over the engine's LIFETIME. The API
  /// layer reports per-request statistics through a
  /// ScopedProbeStatsCollector instead of subtracting two of these —
  /// snapshot subtraction is wrong once requests overlap.
  ProbeStats stats() const {
    return ProbeStats{num_leaf_queries_.load(std::memory_order_relaxed),
                      num_cache_hits_.load(std::memory_order_relaxed),
                      num_batches_.load(std::memory_order_relaxed),
                      num_batched_probes_.load(std::memory_order_relaxed),
                      num_shard_passes_.load(std::memory_order_relaxed)};
  }
  /// \brief Records `n` probes answered from cached bitmaps (no DB work) by
  /// the combination/batch probe layer (see the statistics contract above).
  /// With a collector installed this is a plain thread-local add; the
  /// collector folds into the engine atomics once per request.
  void NoteProbesAnswered(size_t n) const {
    if (ProbeStats* sink = ActiveProbeStats()) {
      sink->num_cache_hits += n;
      return;
    }
    num_cache_hits_.fetch_add(n, std::memory_order_relaxed);
  }
  /// \brief Records one batch-kernel pass answering `probes` probes across
  /// `shard_passes` blocked shards. Counts the probes as cache hits (the
  /// batch layer never touches the DB) and folds the batch-shape counters
  /// into stats().
  void NoteBatchAnswered(size_t probes, size_t shard_passes) const {
    if (ProbeStats* sink = ActiveProbeStats()) {
      sink->num_cache_hits += probes;
      sink->num_batches += 1;
      sink->num_batched_probes += probes;
      sink->num_shard_passes += shard_passes;
      return;
    }
    num_cache_hits_.fetch_add(probes, std::memory_order_relaxed);
    num_batches_.fetch_add(1, std::memory_order_relaxed);
    num_batched_probes_.fetch_add(probes, std::memory_order_relaxed);
    num_shard_passes_.fetch_add(shard_passes, std::memory_order_relaxed);
  }
  /// \brief Adds one request's collected stats into the lifetime counters;
  /// called by ~ScopedProbeStatsCollector.
  void FoldProbeStats(const ProbeStats& stats) const {
    num_leaf_queries_.fetch_add(stats.num_leaf_queries,
                                std::memory_order_relaxed);
    num_cache_hits_.fetch_add(stats.num_cache_hits, std::memory_order_relaxed);
    num_batches_.fetch_add(stats.num_batches, std::memory_order_relaxed);
    num_batched_probes_.fetch_add(stats.num_batched_probes,
                                  std::memory_order_relaxed);
    num_shard_passes_.fetch_add(stats.num_shard_passes,
                                std::memory_order_relaxed);
  }

 private:
  friend class DeltaEngine;  // patches the interned state on Refresh

  /// One cached leaf: the bitmap plus the expression it was evaluated from
  /// (retained so the delta engine can re-evaluate the leaf against mutated
  /// rows only).
  struct LeafEntry {
    reldb::ExprPtr expr;
    std::unique_ptr<KeyBitmap> bits;
  };

  Status EnsureUniverse() const;
  /// The interning body of EnsureUniverse; caller holds cache_mu_ unique.
  Status EnsureUniverseLocked() const;
  Result<const KeyBitmap*> LeafBitmap(const reldb::ExprPtr& expr) const;
  Result<KeyBitmap> Eval(const reldb::ExprPtr& expr) const;
  /// Rebuilds sorted_ids_/rank_of_id_ from the dictionary (after the delta
  /// engine added or recycled keys).
  void RebuildKeyOrder() const;
  /// Counts `n` leaf materializations into the thread's active per-request
  /// collector, or the engine counter when none is installed.
  void NoteLeafQueries(size_t n) const {
    if (ProbeStats* sink = ActiveProbeStats()) {
      sink->num_leaf_queries += n;
      return;
    }
    num_leaf_queries_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Applies the journal suffix; caller holds refresh_mu_ with
  /// pin_count_ == 0 (takes cache_mu_ unique around the delta pass).
  Result<uint64_t> ApplyRefreshLocked();
  /// Drops one epoch pin (EpochPin::Release).
  void Unpin() const;

  const reldb::Database* db_;
  reldb::Executor executor_;
  reldb::Query base_query_;
  std::string key_column_;

  // --- Concurrency (see the epoch-pin section above and ARCHITECTURE.md) --
  //
  // Lock order: refresh_mu_ before cache_mu_; never the reverse.
  //  * refresh_mu_ guards the pin count and deferral flag; journal
  //    application happens under it with pin_count_ == 0, so pin/unpin
  //    gives every pinned reader a happens-before edge to the last applied
  //    refresh (the non-atomic interned state below is safely published).
  //  * cache_mu_ guards the STRUCTURE of the two caches and interning:
  //    shared for lookups, unique for inserts (a cold leaf's DB query runs
  //    under the unique lock, keeping one-query-per-leaf exact under
  //    racing misses) and for refresh application. Entries are node-stable
  //    (unique_ptr payloads) and only erased at pin count zero, so leaf
  //    bitmap POINTERS handed out under a pin stay valid unlocked.
  mutable std::mutex refresh_mu_;
  mutable std::condition_variable pins_cv_;
  mutable size_t pin_count_ = 0;
  mutable bool refresh_deferred_ = false;
  mutable std::atomic<uint64_t> num_deferred_refreshes_{0};
  mutable std::shared_mutex cache_mu_;

  mutable reldb::DenseDictionary dict_;
  mutable std::atomic<bool> universe_ready_{false};
  // The LIVE mask: one bit per interned dense id, cleared while the id is
  // tombstoned. Doubles as the "whole universe" probe answer.
  mutable KeyBitmap universe_;
  mutable size_t num_tombstones_ = 0;
  // Tombstoned dense ids available for recycling (their dictionary mapping
  // was Forgotten; the delta engine scrubs their stale leaf bits before
  // rebinding them to a new key).
  mutable std::vector<uint32_t> free_ids_;
  mutable std::atomic<uint64_t> epoch_{0};
  // Dense ids sorted by the Value total order, for deterministic key output,
  // plus the inverse permutation (id -> rank) so KeysOf can sort just the
  // set bits instead of scanning the whole universe.
  mutable std::vector<uint32_t> sorted_ids_;
  mutable std::vector<uint32_t> rank_of_id_;
  // Canonical leaf key -> retained expr + matching-key bitmap.
  mutable std::unordered_map<std::string, LeafEntry> leaf_cache_;
  mutable std::unordered_map<std::string, size_t> count_cache_;
  mutable std::atomic<size_t> num_leaf_queries_{0};
  mutable std::atomic<size_t> num_cache_hits_{0};
  mutable std::atomic<size_t> num_batches_{0};
  mutable std::atomic<size_t> num_batched_probes_{0};
  mutable std::atomic<size_t> num_shard_passes_{0};
  // First-touch allocation pool (see set_task_pool); null = inline zeroing.
  std::atomic<parallel::TaskPool*> pool_{nullptr};
  std::unique_ptr<DeltaEngine> delta_;
};

}  // namespace core
}  // namespace hypre
