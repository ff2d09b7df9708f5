#include "hypre/storage/store.h"

#include <chrono>

#include "common/string_util.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"

namespace hypre {
namespace storage {

namespace {

#if HYPRE_TELEMETRY_ENABLED
/// Checkpoint accounting: the one place checkpoint metrics are recorded.
void RecordCheckpoint(uint64_t duration_ms, size_t snapshot_bytes) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  registry
      .GetCounter("hypre_storage_checkpoints_total", "storage",
                  "Checkpoints published (snapshot + WAL rotation)")
      ->Increment();
  registry
      .GetHistogram("hypre_storage_checkpoint_duration_ms", "storage",
                    "Milliseconds per checkpoint (spill through rotation)")
      ->Record(duration_ms);
  registry
      .GetCounter("hypre_storage_snapshot_bytes_total", "storage",
                  "Encoded snapshot bytes written")
      ->Add(snapshot_bytes);
}
#endif

}  // namespace

Result<std::unique_ptr<EngineStore>> EngineStore::Open(
    const std::string& dir, const StorageOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  HYPRE_RETURN_NOT_OK(env->CreateDirIfMissing(dir));
  std::unique_ptr<EngineStore> store(new EngineStore(dir, env));
  // In-flight temp files from a previous crashed run are dead weight; the
  // live names are the only durable truth.
  HYPRE_RETURN_NOT_OK(env->RemoveFile(store->snapshot_path() + ".tmp"));
  HYPRE_RETURN_NOT_OK(env->RemoveFile(store->dir_ + "/wal.tmp"));
  return store;
}

Status EngineStore::RotateWal(uint64_t base) {
  writer_.reset();
  std::string tmp = dir_ + "/wal.tmp";
  HYPRE_ASSIGN_OR_RETURN(writer_, WalWriter::Create(env_, tmp, base));
  // The open handle follows the inode through the rename, so appends after
  // this land in the live file.
  HYPRE_RETURN_NOT_OK(env_->RenameFile(tmp, wal_path()));
  wal_seq_ = base;
  return Status::OK();
}

Status EngineStore::InitialCheckpoint(
    reldb::Database* db, const std::vector<SnapshotEngineState>& engines) {
  uint64_t seq = db->journal().sequence();
  HYPRE_RETURN_NOT_OK(
      WriteSnapshot(env_, snapshot_path(), *db, seq, engines));
  snapshot_seq_ = seq;
  HYPRE_RETURN_NOT_OK(RotateWal(seq));
  db->mutable_journal()->TruncateTo(seq);
  return Status::OK();
}

Status EngineStore::SpillJournalTail(const reldb::Database& db) {
  if (writer_ == nullptr) {
    return Status::Internal("storage dir '" + dir_ +
                            "' has no write-ahead log attached (checkpoint "
                            "or recover first)");
  }
  const reldb::MutationJournal& journal = db.journal();
  uint64_t end = journal.sequence();
  for (uint64_t seq = wal_seq_; seq < end; ++seq) {
    const reldb::Mutation& m = journal.entry(seq);
    const reldb::Table* table = db.GetTable(m.table);
    if (table == nullptr) {
      return Status::Internal("journal names unknown table '" + m.table +
                              "'");
    }
    // Appended payloads are read back from the table; tombstone retention
    // guarantees they are still addressable even if the row died since.
    const reldb::Row* row =
        m.kind == reldb::Mutation::Kind::kAppend ? &table->row(m.row)
                                                 : nullptr;
    HYPRE_RETURN_NOT_OK(writer_->AppendRecord(
        EncodeWalRecord(seq, m.kind, m.table, m.row, row)));
  }
  wal_seq_ = end;
  return Status::OK();
}

Status EngineStore::CommitJournal(const reldb::Database& db) {
  telemetry::TraceSpan span("storage", "wal_commit");
  HYPRE_RETURN_NOT_OK(SpillJournalTail(db));
  return writer_->Sync();
}

Status EngineStore::WriteCheckpoint(
    reldb::Database* db, const std::vector<SnapshotEngineState>& engines) {
  telemetry::TraceSpan span("storage", "checkpoint");
#if HYPRE_TELEMETRY_ENABLED
  auto start = std::chrono::steady_clock::now();
#endif
  // Spill first so the WAL alone carries everything up to the snapshot —
  // a crash during the snapshot write recovers from old snapshot + WAL.
  HYPRE_RETURN_NOT_OK(CommitJournal(*db));
  uint64_t seq = db->journal().sequence();
  std::string blob = EncodeSnapshot(*db, seq, engines);
  size_t snapshot_bytes = blob.size();
  HYPRE_RETURN_NOT_OK(WriteSnapshotBlob(env_, snapshot_path(), blob));
  snapshot_seq_ = seq;
  HYPRE_RETURN_NOT_OK(RotateWal(seq));
  // Every engine's cursor is at `seq` (the caller refreshed them before
  // capturing images), and the WAL below `seq` is gone — the in-memory
  // prefix has no remaining consumer.
  db->mutable_journal()->TruncateTo(seq);
  HYPRE_TELEMETRY_STMT(RecordCheckpoint(
      uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count()),
      snapshot_bytes));
  (void)snapshot_bytes;
  return Status::OK();
}

Result<SnapshotContents> EngineStore::Recover() {
  if (!HasSnapshot()) {
    return Status::NotFound("storage dir '" + dir_ +
                            "' has no snapshot to recover from");
  }
  HYPRE_ASSIGN_OR_RETURN(SnapshotContents contents,
                         ReadSnapshot(env_, snapshot_path()));
  uint64_t snap_seq = contents.journal_sequence;
  snapshot_seq_ = snap_seq;

  // A missing WAL is a crash window between the snapshot rename and the
  // WAL rotation — the snapshot alone is the committed state, and creating
  // a fresh WAL at its base destroys nothing.
  if (!env_->FileExists(wal_path())) {
    HYPRE_RETURN_NOT_OK(RotateWal(snap_seq));
    return contents;
  }

  // Replay the WAL tail.
  HYPRE_ASSIGN_OR_RETURN(WalContents wal, ReadWal(env_, wal_path()));
  if (wal.base_seq > snap_seq) {
    return Status::Internal(StringFormat(
        "wal '%s' starts at sequence %llu, beyond the snapshot's %llu — "
        "the snapshot predates the log that references it",
        wal_path().c_str(), (unsigned long long)wal.base_seq,
        (unsigned long long)snap_seq));
  }
  for (const WalRecord& rec : wal.records) {
    uint64_t next = contents.db->journal().sequence();
    // Records below the snapshot (or already replayed — a re-spilled
    // segment) are baked in; skipping them is what makes replay
    // idempotent.
    if (rec.seq < next) continue;
    if (rec.seq != next) {
      return Status::Internal(StringFormat(
          "wal '%s': gap in the log — record sequence %llu where %llu "
          "was expected",
          wal_path().c_str(), (unsigned long long)rec.seq,
          (unsigned long long)next));
    }
    reldb::Table* table = contents.db->GetTable(rec.table);
    if (table == nullptr) {
      return Status::Internal(
          "wal '" + wal_path() + "': record " + std::to_string(rec.seq) +
          " names table '" + rec.table + "' absent from the snapshot");
    }
    if (rec.kind == reldb::Mutation::Kind::kAppend) {
      if (rec.row_id != table->num_rows()) {
        return Status::Internal(StringFormat(
            "wal '%s': record %llu appends row %llu to '%s' but the "
            "table is at row %zu — snapshot and log disagree",
            wal_path().c_str(), (unsigned long long)rec.seq,
            (unsigned long long)rec.row_id, rec.table.c_str(),
            table->num_rows()));
      }
      // AppendUnchecked re-journals the mutation, which is exactly what
      // keeps replayed sequence numbers aligned with the originals.
      table->AppendUnchecked(rec.row);
    } else {
      Status deleted = table->Delete(rec.row_id);
      if (!deleted.ok()) {
        return Status::Internal(StringFormat(
            "wal '%s': record %llu delete failed: %s", wal_path().c_str(),
            (unsigned long long)rec.seq, deleted.message().c_str()));
      }
    }
  }

  // Repair in place: re-attach to the surviving WAL, cutting off only its
  // torn tail. Rotating a fresh WAL here would rename a header-only file
  // over wal.log BEFORE the replayed tail was re-spilled — a crash in that
  // window would silently destroy fsync'd, acknowledged mutations. The
  // surviving WAL already holds every replayed record durably, so there is
  // nothing to rewrite; records below the snapshot's base are dead weight
  // that replay skips, and the next checkpoint rotates them away.
  HYPRE_ASSIGN_OR_RETURN(writer_,
                         WalWriter::Attach(env_, wal_path(), wal.valid_size));
  wal_seq_ = contents.db->journal().sequence();
  return contents;
}

}  // namespace storage
}  // namespace hypre
