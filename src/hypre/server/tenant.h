// Tenant registry: one api::Session per tenant, lazily opened, LRU-capped,
// with a DEDICATED WRITER THREAD enforcing the session's single-writer
// contract.
//
// The Session thread model (api/session.h) is single writer, many readers:
// pure reads (refresh=false enumerations) may run from any thread, but
// base-table mutations, refresh-bearing work, and storage checkpoints must
// be serialized by the caller. An HTTP server has no natural single caller
// — any worker may pick up a mutate — so each Tenant owns ONE writer
// thread and a bounded job queue:
//
//   worker (mutate / refresh-bearing enumerate)
//       │  ExecuteWrite(fn, deadline)           ── enqueue, block on done
//       ▼
//   writer thread: pop ── run fn on the session ── publish Status, notify
//
// Reads never touch the queue; they fan out through the session's
// AdmissionScheduler directly. Overload on the write side is typed the
// same way as the read side: a full queue, or a job still QUEUED when the
// caller's deadline passes, returns Status::Unavailable (the HTTP 429). A
// job the writer has already STARTED always runs to completion and the
// caller waits for its real Status — abandoning an in-flight mutation
// would leave its durability unknown.
//
// Tenants open lazily on first request, from one of three sources (spec
// fields, first match wins):
//   storage_dir with a snapshot  -> Session::OpenFromSnapshot (warm)
//   csv_dir                      -> one table per *.csv, schema inferred
//   synthetic_papers > 0         -> workload::GenerateDblp (deterministic
//                                   per seed — what the tests/bench use)
// A cold-loaded tenant with a storage_dir attaches it after loading, so
// later checkpoints land there. When more than `max_open_tenants` are
// open, the least-recently-USED tenant is shut down (writer drained,
// checkpoint flushed) and dropped; handed-out shared_ptrs keep in-flight
// requests on an evicted tenant safe until they finish.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "hypre/api/session.h"

namespace hypre {
namespace server {

/// \brief Where one tenant's data comes from (see file comment for the
/// source precedence) and what it is called in the URL space.
struct TenantSpec {
  std::string name;
  /// Storage directory: reopened warm when it already holds a snapshot,
  /// attached fresh (initial checkpoint written) after a cold load.
  std::string storage_dir;
  /// Cold CSV load: every *.csv in this directory becomes a table named
  /// after the file, schema inferred from header + first row.
  std::string csv_dir;
  /// Synthetic DBLP network of this many papers (0 = not synthetic).
  size_t synthetic_papers = 0;
  uint64_t synthetic_seed = 42;
};

struct TenantManagerOptions {
  /// Most tenants open at once; 0 = unlimited. Eviction is LRU.
  size_t max_open_tenants = 0;
  /// Writer-queue bound per tenant: a mutate arriving with this many jobs
  /// already queued is shed with Unavailable.
  size_t writer_queue_depth = 64;
  /// Applied to every opened session's AdmissionScheduler (read-side
  /// concurrency / probe-budget / queue-depth caps).
  api::AdmissionScheduler::Options scheduler;
};

/// \brief One open tenant: the session plus its writer thread.
class Tenant {
 public:
  Tenant(std::string name, std::unique_ptr<api::Session> session,
         size_t writer_queue_depth);
  ~Tenant();

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return name_; }
  api::Session* session() { return session_.get(); }

  /// \brief Runs `fn` on the writer thread and blocks until it finishes,
  /// returning its Status. Sheds with Unavailable when the queue is at its
  /// bound, or when `deadline` passes while the job is still queued; once
  /// started a job always runs to completion (the caller keeps waiting).
  Status ExecuteWrite(
      std::function<Status()> fn,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt);

  /// \brief Blocks until every currently queued write has run.
  Status Drain();

  /// \brief Serialized on the writer thread: runs Session::SaveSnapshot (a
  /// full checkpoint — WAL commit, snapshot, WAL rotation, journal
  /// truncation). No-op without attached storage. Eviction and the
  /// graceful-shutdown drain run this per tenant.
  Status FlushCheckpoint();

  /// \brief Drains and joins the writer thread; later writes are shed with
  /// Unavailable. Idempotent. Reads via session() remain valid while the
  /// Tenant object lives.
  void Shutdown();

  /// \brief Writes applied (jobs run, successful or not) / shed.
  uint64_t writes_executed() const;
  uint64_t writes_shed() const;

 private:
  struct WriteJob;
  void WriterMain();

  const std::string name_;
  std::unique_ptr<api::Session> session_;
  const size_t queue_depth_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<WriteJob>> queue_;
  bool stopping_ = false;
  uint64_t executed_ = 0;
  uint64_t shed_ = 0;
  std::thread writer_;
};

/// \brief Name -> Tenant map with lazy open and LRU eviction. Thread-safe;
/// concurrent Get()s for the same cold tenant open it once.
class TenantManager {
 public:
  TenantManager(std::vector<TenantSpec> specs, TenantManagerOptions options);
  ~TenantManager();

  /// \brief The tenant, opening it on first use. Unknown names fail with
  /// NotFound (the HTTP 404); open failures surface as-is.
  Result<std::shared_ptr<Tenant>> Get(const std::string& name);

  /// \brief Configured tenant names, sorted.
  std::vector<std::string> TenantNames() const;

  /// \brief Currently open tenants (for /healthz and tests).
  size_t num_open() const;

  /// \brief Graceful shutdown: every open tenant's writer drained and its
  /// checkpoint flushed. Returns the first error but keeps going — one
  /// tenant's bad disk must not strand another's WAL tail.
  Status ShutdownAll();

 private:
  Result<std::shared_ptr<Tenant>> OpenLocked(const TenantSpec& spec,
                                             std::unique_lock<std::mutex>* lock);

  const TenantManagerOptions options_;
  std::unordered_map<std::string, TenantSpec> specs_;

  mutable std::mutex mu_;
  std::condition_variable opening_cv_;
  std::unordered_map<std::string, std::shared_ptr<Tenant>> open_;
  /// Most-recently-used first; names mirror `open_` keys.
  std::list<std::string> lru_;
  /// Tenants mid-open (Get released the lock for the load itself).
  std::vector<std::string> opening_;
};

}  // namespace server
}  // namespace hypre
