// EngineStore: checkpoint/journal/recovery orchestration over one directory.
//
// Directory layout:
//
//   <dir>/snapshot.hypre   the current snapshot (atomic rename publishes it)
//   <dir>/wal.log          the write-ahead journal log paired with it
//   <dir>/*.tmp            in-flight writes; never read, removed on open
//
// The checkpoint sequence is ordered for crash safety — at every kill point
// the directory recovers to a committed state or recovery fails closed:
//
//   1. (caller) Refresh every engine so all journal cursors == sequence()
//   2. CommitJournal: spill the journal tail to the WAL, fsync
//   3. write snapshot.tmp covering sequence S, fsync, rename over
//      snapshot.hypre                       <- the commit point
//   4. rotate the WAL: write wal.tmp with base S, fsync, rename over
//      wal.log (the old WAL's records are all < S, baked into the snapshot)
//   5. MutationJournal::TruncateTo(S) — in-memory segments below S die
//
// A crash between 3 and 4 leaves a NEW snapshot with the OLD WAL; replay
// skips records below the snapshot's sequence, so that pairing is valid.
// Recovery itself (Recover) loads the snapshot, replays the WAL tail
// through the normal Table::Append/Delete path (re-journaling, so replayed
// records keep their sequence numbers), verifies row ids line up, then
// re-attaches the writer to the surviving WAL (cutting off only a torn
// tail) before handing the database back. Recovery never rewrites the WAL:
// its committed records are the durable truth, and rotating a fresh log
// over them before they were re-spilled would turn a crash during recovery
// into silent loss of acknowledged mutations. A fresh WAL is created only
// when none exists (the crash window between steps 3 and 4 of the FIRST
// checkpoint), where there is nothing to destroy.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypre/storage/env.h"
#include "hypre/storage/snapshot.h"
#include "hypre/storage/wal.h"

namespace hypre {
namespace storage {

/// \brief Knobs for a storage-attached session. Checkpoints are explicit
/// only (api::Session::SaveSnapshot; CommitJournal for WAL durability);
/// the store never checkpoints on its own.
struct StorageOptions {
  /// File-system seam; null uses Env::Default(). Tests inject a
  /// FaultInjectionEnv here.
  Env* env = nullptr;
};

class EngineStore {
 public:
  /// \brief Binds a store to `dir` (created if missing); removes stale
  /// *.tmp files. Does not read or write snapshot/WAL — follow with
  /// InitialCheckpoint (fresh database) or Recover (existing directory).
  static Result<std::unique_ptr<EngineStore>> Open(const std::string& dir,
                                                   const StorageOptions& options);

  std::string snapshot_path() const { return dir_ + "/snapshot.hypre"; }
  std::string wal_path() const { return dir_ + "/wal.log"; }
  bool HasSnapshot() const { return env_->FileExists(snapshot_path()); }

  /// \brief First checkpoint for a database this process already holds in
  /// memory: snapshot + fresh WAL. The caller must have refreshed every
  /// captured engine (cursors == journal sequence).
  Status InitialCheckpoint(reldb::Database* db,
                           const std::vector<SnapshotEngineState>& engines);

  /// \brief Loads the snapshot, replays the WAL tail into it, and attaches
  /// the store's writer to the surviving WAL (truncating only a torn
  /// tail; the committed records are never rewritten). Fails closed on any
  /// corruption: no partial state, and the directory is left untouched for
  /// forensics.
  Result<SnapshotContents> Recover();

  /// \brief Spills journal entries [wal_sequence(), db.journal().sequence())
  /// to the WAL and fsyncs — the group-commit point making those mutations
  /// durable. Row payloads are read from the tables (tombstone retention
  /// keeps deleted rows addressable).
  Status CommitJournal(const reldb::Database& db);

  /// \brief Steps 2-5 of the checkpoint sequence above.
  Status WriteCheckpoint(reldb::Database* db,
                         const std::vector<SnapshotEngineState>& engines);

  /// \brief Journal sequence covered by the current snapshot.
  uint64_t snapshot_sequence() const { return snapshot_seq_; }
  /// \brief Next journal sequence the WAL has not spilled yet.
  uint64_t wal_sequence() const { return wal_seq_; }

  Env* env() const { return env_; }
  const std::string& dir() const { return dir_; }

 private:
  EngineStore(std::string dir, Env* env) : dir_(std::move(dir)), env_(env) {}

  /// Spills journal entries [wal_seq_, journal.sequence()) without syncing.
  Status SpillJournalTail(const reldb::Database& db);
  /// Writes a fresh WAL at `base` via temp + rename, replacing writer_.
  Status RotateWal(uint64_t base);

  std::string dir_;
  Env* env_;
  std::unique_ptr<WalWriter> writer_;
  uint64_t snapshot_seq_ = 0;
  uint64_t wal_seq_ = 0;
};

}  // namespace storage
}  // namespace hypre
