// Versioned binary snapshots of the full engine state.
//
// A snapshot captures everything needed to warm-start a session without
// re-reading CSVs or re-interning the key universe:
//
//   [8B magic "HYSNAP01"]
//   section kSectionMeta        JSON catalog: format version, the journal
//                               sequence the snapshot covers, table schemas
//                               + index columns, and one descriptor per
//                               probe engine (base SQL, key column, epoch,
//                               journal cursor, free-id list, leaf count).
//   section kSectionTableRows   one per table, in meta order: the PHYSICAL
//                               row vector including tombstones, so RowId
//                               space is preserved and journal replay
//                               addresses the same rows.
//   section kSectionDictionary  one per interned engine: the dense
//                               dictionary in id order with per-id live
//                               flags (the live mask IS the universe
//                               bitmap) — dead ids keep their stale value
//                               addressable without shadowing live keys.
//   section kSectionLeaf        one per cached leaf of that engine: the
//                               predicate rendered as parse-compatible SQL
//                               plus its bitmap words.
//   section kSectionEnd         explicit terminator.
//
// Every section payload is CRC32-checksummed (see format.h) and the file is
// written to a temp name, fsync'd, and renamed over the live name — a
// reader observes either the old complete snapshot or the new one, never a
// partial write. Readers fail closed: any checksum mismatch, truncation, or
// semantic inconsistency (wrong section order, counts that disagree with
// the catalog) aborts the load with no partial state escaping.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypre/probe_engine.h"
#include "hypre/storage/env.h"
#include "reldb/database.h"

namespace hypre {
namespace storage {

/// \brief One engine's durable identity + interned state.
struct SnapshotEngineState {
  /// The base query rendered by Query::ToSql() — round-trips through
  /// sqlparse::ParseSelect and doubles as the session's engine cache key.
  std::string base_sql;
  std::string key_column;
  core::EngineSnapshotImage image;
};

/// \brief Everything a snapshot file holds, decoded.
struct SnapshotContents {
  /// Journal sequence the snapshot covers: the restored journal starts
  /// numbering here and WAL records below it are already baked in.
  uint64_t journal_sequence = 0;
  std::unique_ptr<reldb::Database> db;
  std::vector<SnapshotEngineState> engines;
};

/// \brief Serializes `db` (+ engine images) covering `journal_sequence`
/// into the snapshot wire format. Pure encode, no I/O — the background
/// checkpointer captures the blob on the request thread (where the
/// database is quiescent) and hands only bytes to its worker.
std::string EncodeSnapshot(const reldb::Database& db,
                           uint64_t journal_sequence,
                           const std::vector<SnapshotEngineState>& engines);

/// \brief Atomically publishes an encoded snapshot blob to `path` via temp
/// file + fsync + rename. Touches nothing but the filesystem, so it is
/// safe off-thread while the database keeps mutating.
Status WriteSnapshotBlob(Env* env, const std::string& path,
                         const std::string& blob);

/// \brief Atomically writes a snapshot of `db` (+ engine images) covering
/// `journal_sequence` to `path` via temp file + fsync + rename.
/// (EncodeSnapshot + WriteSnapshotBlob in one step.)
Status WriteSnapshot(Env* env, const std::string& path,
                     const reldb::Database& db, uint64_t journal_sequence,
                     const std::vector<SnapshotEngineState>& engines);

/// \brief Reads and validates a snapshot, rebuilding the database (rows,
/// tombstones, indexes, journal start) from scratch. Fails closed — on any
/// error the returned state is an error Status, never a partial database.
Result<SnapshotContents> ReadSnapshot(Env* env, const std::string& path);

}  // namespace storage
}  // namespace hypre
