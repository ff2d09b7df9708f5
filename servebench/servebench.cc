// servebench: the load generator, correctness gate and traced replay of the
// serving benchmark. run.py builds it next to hypre_server and drives it:
//
//   servebench plan  --workload W --seed N --seconds S --warmup-out FILE
//       Writes the warm-up request body (empty for cold workloads) and
//       prints a summary of the generated profiles.
//   servebench load  --workload W --seed N --seconds S --port P [--cpu C]
//                    [--corrupt]
//       Replays the seeded request streams against a running hypre_server
//       over loopback (one thread and one keep-alive connection per
//       stream, at most two; on core C when given), checks every response,
//       and prints the end-to-end figures as one JSON line.
//   servebench trace --workload W --seed N --seconds S --work DIR
//                    [--spans FILE]
//       Replays the same streams in-process through the server's own
//       request path (ParseRequestHead, Service::Handle over a
//       TenantManager, SerializeHttpResponse), once untraced and once with
//       spans recorded around the layer calls and the engine's own spans
//       collected, checks the responses, and prints per-layer figures.
//
// --corrupt flips one byte of one stored response before the check, to
// show that the gate fails the run.
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "hypre/api/session.h"
#include "hypre/preference.h"
#include "hypre/server/codec.h"
#include "hypre/server/http.h"
#include "hypre/server/service.h"
#include "hypre/server/tenant.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"
#include "sqlparse/select_parser.h"
#include "workload.h"

namespace servebench {
namespace {

using hypre::Json;
using hypre::Result;
using hypre::Status;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// --- Spans ------------------------------------------------------------------

/// One recorded span: a layer call made by the benchmark, or a span the
/// engine recorded inside it (EnumerationRequest::trace, or a trace target
/// installed around a writer-thread job).
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;  // index in the same log, -1 for a request root
  uint32_t request;
};

/// Per-thread span log. Null when the replay is untraced.
class SpanLog {
 public:
  int32_t Open(const char* name, uint32_t request) {
    spans_.push_back({name, NowNs(), 0, current_, request});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void Close(int32_t index) {
    spans_[index].end_ns = NowNs();
    current_ = spans_[index].parent;
  }
  /// A span whose interval is already known, under the open span.
  int32_t Add(const char* name, uint64_t start, uint64_t end,
              uint32_t request) {
    spans_.push_back({name, start, end, current_, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Copies an engine trace in, as children of `parent`, with the trace's
  /// origin at `origin_ns`. Engine (layer, name) pairs become
  /// "<layer>.<name>", except the algorithm run, which becomes
  /// "algo.<algorithm>.run".
  void Import(const hypre::telemetry::Trace& trace, uint64_t origin_ns,
              int32_t parent, uint32_t request, const char* algo_span) {
    std::vector<int32_t> mapped(trace.spans().size(), parent);
    for (size_t i = 0; i < trace.spans().size(); ++i) {
      const auto& s = trace.spans()[i];
      const bool is_run = std::strcmp(s.layer, "api") == 0 &&
                          std::strcmp(s.name, "run_algorithm") == 0;
      const char* name = is_run && algo_span != nullptr
                             ? algo_span
                             : Intern(s.layer, s.name);
      const int32_t up = s.parent >= 0 ? mapped[s.parent] : parent;
      spans_.push_back({name, origin_ns + s.start_ns,
                        origin_ns + s.start_ns + s.duration_ns, up, request});
      mapped[i] = static_cast<int32_t>(spans_.size() - 1);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// "<layer>.<name>" with a stable address (engine names are literals, so
  /// the pointer pair is a valid cache key).
  static const char* Intern(const char* layer, const char* name) {
    static std::mutex mu;
    static std::map<std::pair<const void*, const void*>, std::string> names;
    std::lock_guard<std::mutex> lock(mu);
    auto key = std::make_pair(static_cast<const void*>(layer),
                              static_cast<const void*>(name));
    auto it = names.find(key);
    if (it == names.end()) {
      std::string full = std::string(layer) + "." + name;
      if (full == "storage.wal_fsync") full = "storage.fsync";
      if (full == "engine.prefetch_leaves") full = "engine.prefetch";
      it = names.emplace(key, std::move(full)).first;
    }
    return it->second.c_str();
  }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t request) : log_(log) {
    if (log_ != nullptr) index_ = log_->Open(name, request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

const char* AlgoSpanName(const std::string& algorithm) {
  static const std::map<std::string, const char*> names = {
      {"peps", "algo.peps.run"},
      {"ta", "algo.ta.run"},
      {"combine-two", "algo.combine-two.run"},
      {"partially-combine-all", "algo.partially-combine-all.run"},
      {"exhaustive", "algo.exhaustive.run"},
      {"bias-random", "algo.bias-random.run"}};
  auto it = names.find(algorithm);
  return it == names.end() ? "algo.other.run" : it->second;
}

// --- Transports -------------------------------------------------------------

struct Reply {
  int status = 0;  // 0: transport failure or timeout
  std::string body;
  size_t wire_bytes = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual Reply Send(size_t connection, const Body& body, uint32_t request,
                     SpanLog* log) = 0;
  /// Traced replays: extra spans for a request, recorded after its reply
  /// has been timed.
  virtual void Attribute(const Body&, uint32_t, SpanLog*) {}
  virtual void CloseAll() {}
};

/// Keep-alive loopback connections to hypre_server, one per stream.
class WireTransport : public Transport {
 public:
  WireTransport(uint16_t port, size_t connections)
      : port_(port), fds_(connections, -1) {}
  ~WireTransport() override { CloseAll(); }

  Reply Send(size_t connection, const Body& body, uint32_t,
             SpanLog*) override {
    Reply reply;
    int& fd = fds_[connection];
    if (fd < 0) {
      Result<int> opened = hypre::server::ConnectTcp("127.0.0.1", port_);
      if (!opened.ok()) return reply;
      fd = *opened;
      // A request that takes longer than this counts as a timeout.
      timeval tv{30, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    auto sent = hypre::server::SendHttpRequest(fd, "POST", body.target,
                                               body.text);
    if (!sent.ok()) {
      ::close(fd);
      fd = -1;
      return reply;
    }
    reply.status = sent->status;
    reply.body = std::move(sent->body);
    reply.wire_bytes = reply.body.size();
    return reply;
  }

  void CloseAll() override {
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

 private:
  uint16_t port_;
  std::vector<int> fds_;
};

/// Applies decoded mutation ops the way the server's mutate handler does
/// (the correctness gate's reference session).
Status ApplyOps(hypre::reldb::Database* db,
                std::vector<hypre::server::MutationOp>* ops) {
  for (hypre::server::MutationOp& op : *ops) {
    hypre::reldb::Table* table = db->GetTable(op.table);
    if (table == nullptr) return Status::NotFound("unknown table " + op.table);
    if (op.kind == hypre::server::MutationOp::Kind::kAppend) {
      HYPRE_RETURN_NOT_OK(table->Append(std::move(op.row)));
    } else {
      HYPRE_RETURN_NOT_OK(table->Delete(op.row_id));
    }
  }
  return Status::OK();
}

/// Request id of spans not tied to one request (writer thread, probes).
constexpr uint32_t kNoRequest = UINT32_MAX;

/// The server's request path in-process, as a server worker runs it:
/// ParseRequestHead, Service::Handle, SerializeHttpResponse. Traced, a
/// trace target is installed around Handle, so the engine's spans on the
/// calling thread (leaf prefetch, algorithm run, prober, deferred
/// refreshes) land under the "server.handle" span.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(hypre::server::TenantManager* tenants)
      : tenants_(tenants), service_(tenants, {}) {}

  Reply Send(size_t, const Body& body, uint32_t request,
             SpanLog* log) override {
    const std::string raw = "POST " + body.target +
                            " HTTP/1.1\r\nHost: hypre\r\nContent-Length: " +
                            std::to_string(body.text.size()) + "\r\n\r\n" +
                            body.text;
    Reply reply;
    ScopedSpan root(log, body.is_write ? "request.mutate" : "request.enumerate",
                    request);
    hypre::server::HttpRequest http;
    {
      ScopedSpan span(log, "http.parse", request);
      const size_t head_end = raw.find("\r\n\r\n") + 4;
      int error_status = 0;
      Result<size_t> length = hypre::server::ParseRequestHead(
          raw.substr(0, head_end), &http, &error_status);
      if (!length.ok()) return reply;
      http.body = raw.substr(head_end, *length);
    }
    hypre::server::HttpResponse response;
    {
      ScopedSpan span(log, "server.handle", request);
      if (log == nullptr) {
        response = service_.Handle(http);
      } else {
        hypre::telemetry::Trace trace(4096);
        const uint64_t origin = NowNs() - trace.NowNs();
        {
          hypre::telemetry::ScopedTraceTarget target(&trace);
          response = service_.Handle(http);
        }
        log->Import(trace, origin, span.index(), request,
                    AlgoSpanName(body.label.substr(0, body.label.find('/'))));
      }
    }
    {
      ScopedSpan span(log, "http.serialize", request);
      reply.wire_bytes =
          hypre::server::SerializeHttpResponse(response, true).size();
    }
    reply.status = response.status;
    reply.body = std::move(response.body);
    return reply;
  }

  /// Traced pass only, after the request has been timed: re-runs on the
  /// same input the layer calls Handle makes inside itself, each as its own
  /// span, so their cost is known without a copy of the handler in the
  /// timed path. TenantManager::Get, the codec decode, and the predicate
  /// and base-query parses inside the decode (ParseSelect, MakeAtom).
  void Attribute(const Body& body, uint32_t request, SpanLog* log) override {
    {
      ScopedSpan span(log, "tenant.get", request);
      (void)tenants_->Get(kTenant);
    }
    if (body.is_write) {
      ScopedSpan span(log, "codec.decode", request);
      (void)hypre::server::DecodeMutateRequest(body.text);
      return;
    }
    Result<hypre::server::DecodedEnumerate> decoded =
        Status::Internal("not decoded");
    {
      ScopedSpan span(log, "codec.decode", request);
      decoded = hypre::server::DecodeEnumerateRequest(body.text);
    }
    if (!decoded.ok()) return;
    ScopedSpan span(log, "sqlparse.parse", request);
    (void)hypre::sqlparse::ParseSelect(kBaseQuery);
    for (const hypre::core::PreferenceAtom& atom :
         decoded->request.preferences) {
      (void)hypre::core::MakeAtom(atom.predicate, atom.intensity);
    }
  }

 private:
  hypre::server::TenantManager* tenants_;
  hypre::server::Service service_;
};

/// A trace target on a tenant's writer thread for the life of this object,
/// so writer jobs (refresh, WAL commit, fsync) keep their engine spans. The
/// target is thread-local, so writer jobs install and remove it.
class WriterTrace {
 public:
  explicit WriterTrace(hypre::server::Tenant* tenant) : tenant_(tenant) {
    origin_ = NowNs() - trace_.NowNs();
    MustOk(tenant_->ExecuteWrite([this] {
      target_ = std::make_unique<hypre::telemetry::ScopedTraceTarget>(&trace_);
      return Status::OK();
    }),
           "writer trace install");
  }
  ~WriterTrace() {
    MustOk(tenant_->ExecuteWrite([this] {
      target_.reset();
      return Status::OK();
    }),
           "writer trace removal");
  }
  WriterTrace(const WriterTrace&) = delete;
  WriterTrace& operator=(const WriterTrace&) = delete;

  /// Copies the spans recorded so far into `log` (writer thread only).
  void CopyTo(SpanLog* log) {
    MustOk(tenant_->ExecuteWrite([&] {
      log->Import(trace_, origin_, -1, kNoRequest, nullptr);
      return Status::OK();
    }),
           "writer trace copy");
    if (trace_.dropped() > 0) Die("writer trace buffer overflowed");
  }

 private:
  hypre::server::Tenant* tenant_;
  hypre::telemetry::Trace trace_{1 << 18};
  uint64_t origin_ = 0;
  std::unique_ptr<hypre::telemetry::ScopedTraceTarget> target_;
};

/// Samples the tenant's writer queue: every 20 ms a no-op job goes through
/// Tenant::ExecuteWrite, and the time from the call to the job's start is
/// the wait a write arriving at that moment sees.
class WriterQueueProbe {
 public:
  WriterQueueProbe(hypre::server::Tenant* tenant, SpanLog* log)
      : thread_([this, tenant, log] {
          while (!stop_.load()) {
            const uint64_t called = NowNs();
            uint64_t started = 0;
            MustOk(tenant->ExecuteWrite([&started] {
              started = NowNs();
              return Status::OK();
            }),
                   "writer queue probe");
            if (log != nullptr) {
              log->Add("tenant.writer_wait", called, started, kNoRequest);
            }
            ++jobs_;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        }) {}
  ~WriterQueueProbe() { Stop(); }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  uint64_t jobs() const { return jobs_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> jobs_{0};
  std::thread thread_;
};

// --- Replay -----------------------------------------------------------------

struct Sample {
  uint32_t phase = 0;
  uint32_t body = 0;
  uint64_t due_ns = 0;    // when it was scheduled (closed loop: sent)
  uint64_t start_ns = 0;  // when it was sent (0: never sent)
  uint64_t end_ns = 0;
  int status = 0;
  size_t wire_bytes = 0;
  int64_t epoch = -1;
  int64_t stats[5] = {0, 0, 0, 0, 0};
  bool open = false;      // sent on an open-loop stream
  bool ok() const { return status == 200; }
};

constexpr size_t kMaxConnections = 4;

constexpr const char* kStatNames[5] = {"leaf_queries", "cache_hits", "batches",
                                       "batched_probes", "shard_passes"};

/// First response seen per body, and whether every later response to the
/// same body was identical to it.
struct Digest {
  std::string first;
  uint64_t count = 0;
  bool consistent = true;
};

struct Replay {
  std::vector<Sample> samples;
  std::map<uint32_t, Digest> digests;
  /// Acknowledged writes, in acknowledgement order.
  std::vector<uint32_t> acked;
  std::vector<std::string> probe_replies;
  std::vector<std::string> errors;
};

class Replayer {
 public:
  Replayer(const Plan& plan, Transport* transport)
      : plan_(plan), transport_(transport) {}

  /// Runs phase `p` (its streams cut to `limit_s` seconds when > 0) and
  /// appends its samples.
  void RunPhase(size_t p, double limit_s, std::vector<SpanLog>* logs,
                Replay* out) {
    const Phase& phase = plan_.phases[p];
    const double seconds = limit_s > 0 ? std::min(limit_s, phase.seconds)
                                       : phase.seconds;
    const size_t n = phase.streams.size();
    std::vector<std::vector<Sample>> per(n);
    std::vector<std::map<uint32_t, Digest>> digests(n);
    std::vector<std::vector<uint32_t>> acked(n);
    std::vector<std::string> errors(n);
    const uint64_t begin = NowNs() + 5'000'000;
    const uint64_t stop = begin + static_cast<uint64_t>(seconds * 1e9);
    // Open-loop requests still unsent this long after the schedule ends
    // are counted as failed rather than sent into a runaway backlog.
    const uint64_t give_up = stop + 2'000'000'000ULL;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
        int64_t& last_epoch = last_epoch_[c];
        int64_t& last_sequence = last_sequence_[c];
        const auto& ops = phase.streams[c];
        const Loop loop = phase.loops[c];
        for (size_t i = 0; i < ops.size(); ++i) {
          const Op& op = ops[i];
          Sample s;
          s.phase = static_cast<uint32_t>(p);
          s.body = op.body;
          s.open = loop == Loop::kOpen;
          if (s.open) {
            if (op.at_ns >= static_cast<uint64_t>(seconds * 1e9)) break;
            s.due_ns = begin + op.at_ns;
            uint64_t now = NowNs();
            if (now > give_up) {
              per[c].push_back(s);  // never sent: a miss
              continue;
            }
            if (now < s.due_ns) {
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(s.due_ns - now));
            }
          } else {
            const uint64_t now = NowNs();
            if (now >= stop) break;
            if (now < begin) {
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(begin - now));
            }
          }
          s.start_ns = NowNs();
          if (!s.open) s.due_ns = s.start_ns;
          const uint32_t request = next_request_.fetch_add(1);
          const Body& body = plan_.bodies[op.body];
          Reply reply = transport_->Send(c, body, request, log);
          s.end_ns = NowNs();
          if (log != nullptr) transport_->Attribute(body, request, log);
          s.status = reply.status;
          s.wire_bytes = reply.wire_bytes;
          if (s.ok()) {
            Absorb(body, op.body, reply.body, &s, &digests[c], &acked[c],
                   &last_epoch, &last_sequence, &errors[c]);
          }
          per[c].push_back(s);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t c = 0; c < n; ++c) {
      out->samples.insert(out->samples.end(), per[c].begin(), per[c].end());
      for (auto& [body, d] : digests[c]) Merge(body, std::move(d), out);
      out->acked.insert(out->acked.end(), acked[c].begin(), acked[c].end());
      if (!errors[c].empty()) out->errors.push_back(errors[c]);
    }
  }

  /// Sends the plan's probes on connection 0, in order, after the phases.
  void RunProbes(Replay* out) {
    for (uint32_t b : plan_.probes) {
      Reply reply = transport_->Send(0, plan_.bodies[b],
                                     next_request_.fetch_add(1), nullptr);
      if (reply.status != 200) {
        out->errors.push_back("probe request failed with status " +
                              std::to_string(reply.status));
      }
      out->probe_replies.push_back(std::move(reply.body));
    }
  }

 private:
  void Absorb(const Body& body, uint32_t index, const std::string& text,
              Sample* s, std::map<uint32_t, Digest>* digests,
              std::vector<uint32_t>* acked, int64_t* last_epoch,
              int64_t* last_sequence, std::string* error) {
    if (body.is_write) {
      int64_t sequence = -1;
      int64_t applied = 0;
      if (!ScanInt(text, "journal_sequence", &sequence) ||
          !ScanInt(text, "applied", &applied) || applied < 1 ||
          sequence <= *last_sequence) {
        if (error->empty()) *error = "bad mutate acknowledgement: " + text;
        return;
      }
      *last_sequence = sequence;
      acked->push_back(index);
      return;
    }
    ScanInt(text, "epoch", &s->epoch);
    for (int i = 0; i < 5; ++i) ScanInt(text, kStatNames[i], &s->stats[i]);
    if (plan_.check == CheckMode::kReadYourWrites) {
      if (s->epoch < *last_epoch && error->empty()) {
        *error = "epoch went down on a connection: " +
                 std::to_string(*last_epoch) + " -> " +
                 std::to_string(s->epoch);
      }
      *last_epoch = std::max(*last_epoch, s->epoch);
      return;
    }
    std::string canonical =
        plan_.check == CheckMode::kSampleNoStats ? BlankStats(text) : text;
    Digest& d = (*digests)[index];
    if (d.count++ == 0) {
      d.first = std::move(canonical);
    } else if (canonical != d.first) {
      d.consistent = false;
    }
  }

  static void Merge(uint32_t body, Digest d, Replay* out) {
    auto it = out->digests.find(body);
    if (it == out->digests.end()) {
      out->digests.emplace(body, std::move(d));
      return;
    }
    Digest& have = it->second;
    have.count += d.count;
    have.consistent = have.consistent && d.consistent && d.first == have.first;
  }

  const Plan& plan_;
  Transport* transport_;
  std::atomic<uint32_t> next_request_{0};
  // Per connection, across phases: the highest read epoch and mutate
  // journal sequence seen (each connection is one thread at a time).
  std::vector<int64_t> last_epoch_ = std::vector<int64_t>(kMaxConnections, -1);
  std::vector<int64_t> last_sequence_ =
      std::vector<int64_t>(kMaxConnections, -1);
};

// --- Correctness gate -------------------------------------------------------

/// Runs `text` through the codec and a direct Session::Enumerate, encoded
/// the way the wire encodes it.
std::string Reference(hypre::api::Session* session, const std::string& text) {
  auto decoded = Must(hypre::server::DecodeEnumerateRequest(text),
                      "reference decode");
  auto result = Must(session->Enumerate(decoded.request), "reference enumerate");
  return hypre::server::EncodeEnumerationResult(decoded.request.algorithm,
                                                result);
}

/// Checks a replay against in-process references. Returns the mismatches
/// (empty when every checked response is correct).
std::vector<std::string> Check(const Plan& plan, Replay* replay,
                               bool corrupt) {
  std::vector<std::string> problems = replay->errors;
  auto report = [&](const std::string& what, const std::string& got,
                    const std::string& want) {
    problems.push_back(what + "\n  got:  " + got.substr(0, 300) +
                       "\n  want: " + want.substr(0, 300));
  };
  // --corrupt: flip one byte of one response the check below compares.
  auto flip = [](std::string* victim) {
    if (victim->size() > 40) (*victim)[40] ^= 0x01;
  };
  for (const auto& [body, d] : replay->digests) {
    if (!d.consistent) {
      problems.push_back("responses to one request differ (body " +
                         std::to_string(body) + ", " +
                         plan.bodies[body].label + ")");
    }
  }
  // A request that was sent and failed other than by being shed (429, or
  // 503 from a stopping server) is a fault of the program under load. This
  // catches a broken write path, whose failed writes would otherwise leave
  // the probes to compare against a reference with no writes applied.
  size_t faults = 0;
  for (const Sample& s : replay->samples) {
    if (s.start_ns == 0 || s.ok() || s.status == 429 || s.status == 503) {
      continue;
    }
    if (faults++ == 0) {
      problems.push_back("a " + plan.bodies[s.body].label +
                         " request failed with status " +
                         std::to_string(s.status) +
                         " (0: transport failure or timeout)");
    }
  }
  if (faults > 1) {
    problems.push_back(std::to_string(faults) +
                       " requests failed other than by being shed");
  }

  auto db = Must(GenerateTenantDb(), "reference universe");
  if (plan.check == CheckMode::kReadYourWrites) {
    if (replay->acked.empty()) {
      problems.push_back("no write was acknowledged");
    }
    for (uint32_t b : replay->acked) {
      auto decoded = Must(hypre::server::DecodeMutateRequest(plan.bodies[b].text),
                          "reference mutate decode");
      MustOk(ApplyOps(db.get(), &decoded.ops), "reference mutate");
    }
    hypre::api::Session session(std::move(db));
    if (corrupt && !replay->probe_replies.empty()) {
      flip(&replay->probe_replies.front());
    }
    for (size_t i = 0; i < plan.probes.size(); ++i) {
      const std::string want =
          BlankEpoch(BlankStats(Reference(&session, plan.bodies[plan.probes[i]].text)));
      const std::string got = i < replay->probe_replies.size()
                                  ? BlankEpoch(BlankStats(replay->probe_replies[i]))
                                  : std::string();
      if (got != want) report("read-your-writes probe " + std::to_string(i), got, want);
    }
    return problems;
  }

  if (replay->digests.empty()) problems.push_back("no response was checked");
  std::vector<uint32_t> keys;
  for (const auto& [body, d] : replay->digests) keys.push_back(body);
  if (plan.check == CheckMode::kSampleNoStats) {
    hypre::Rng rng(plan.seed + 17);
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
    }
    if (keys.size() > 24) keys.resize(24);
    std::sort(keys.begin(), keys.end());
  }
  if (corrupt && !keys.empty()) flip(&replay->digests[keys.front()].first);
  // Four sessions over the shared read-only universe, each warming only
  // the leaves of its own slice of the keys in one executor pass (the
  // cost the server pays in its warm-up, split across the cores).
  constexpr size_t kSlices = 4;
  std::vector<std::vector<std::string>> wants(kSlices);
  std::vector<std::thread> workers;
  for (size_t slice = 0; slice < kSlices; ++slice) {
    workers.emplace_back([&, slice] {
      const size_t begin = keys.size() * slice / kSlices;
      const size_t end = keys.size() * (slice + 1) / kSlices;
      if (begin == end) return;
      hypre::api::Session session(db.get());
      std::vector<std::string> predicates;
      for (size_t i = begin; i < end; ++i) {
        for (const auto& p : plan.bodies[keys[i]].predicates) {
          predicates.push_back(p);
        }
      }
      size_t leaves = 0;
      Reference(&session, WarmupBody(predicates, &leaves));
      for (size_t i = begin; i < end; ++i) {
        std::string want = Reference(&session, plan.bodies[keys[i]].text);
        if (plan.check == CheckMode::kSampleNoStats) want = BlankStats(want);
        wants[slice].push_back(std::move(want));
      }
    });
  }
  for (auto& w : workers) w.join();
  size_t next = 0;
  for (size_t slice = 0; slice < kSlices; ++slice) {
    for (const std::string& want : wants[slice]) {
      const uint32_t b = keys[next++];
      const std::string& got = replay->digests[b].first;
      if (got != want) report("response to " + plan.bodies[b].label, got, want);
    }
  }
  return problems;
}

// --- Figures ----------------------------------------------------------------

/// The latency a failed, refused or unsent request counts as: larger than
/// any limit, and still a valid JSON number.
constexpr double kMissMs = 1e9;

/// Latency of each sample in ms from its due time; failures are kMissMs.
std::vector<double> Latencies(const std::vector<Sample>& samples,
                              const std::function<bool(const Sample&)>& keep) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (!keep(s)) continue;
    out.push_back(s.ok() ? double(s.end_ns - s.due_ns) / 1e6 : kMissMs);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return kMissMs;
  size_t rank = static_cast<size_t>(std::ceil(q * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Highest of p95/p90/p80 with at least ten samples beyond it. The gated
/// tail stops at p95: on a machine shared with other tenants, p99 moved by
/// more than 40% between runs of the same build.
double TailQuantile(size_t n) {
  for (int percent : {95, 90, 80}) {
    if (size_t(100 - percent) * n >= 1000) return percent / 100.0;
  }
  return 0.5;
}

Json Metric(double value, const char* unit) {
  Json m = Json::Object();
  m.Set("value", Json::Double(value));
  m.Set("unit", Json::Str(unit));
  return m;
}

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  uint16_t port = 0;
  bool corrupt = false;
  std::string warmup_out;
  std::string work;
  std::string spans_out;
  int cpu = -1;  // load: the core the replay threads run on (-1: any)
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: servebench plan|load|trace --workload W ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    auto v = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = v();
    else if (k == "--seed") a.seed = std::stoull(v());
    else if (k == "--seconds") a.seconds = std::stod(v());
    else if (k == "--port") a.port = static_cast<uint16_t>(std::stoi(v()));
    else if (k == "--corrupt") a.corrupt = true;
    else if (k == "--warmup-out") a.warmup_out = v();
    else if (k == "--work") a.work = v();
    else if (k == "--spans") a.spans_out = v();
    else if (k == "--cpu") a.cpu = std::stoi(v());
    else Die("unknown argument " + k);
  }
  return a;
}

Plan MakePlan(const Args& a) {
  auto db = Must(GenerateTenantDb(), "universe");
  const std::vector<Profile> population = DeriveProfiles(*db);
  return Must(BuildPlan(a.workload, a.seed, a.seconds, population), "plan");
}

int RunPlan(const Args& a) {
  const Plan plan = MakePlan(a);
  std::ofstream(a.warmup_out, std::ios::binary) << plan.warmup;
  Json summary = Json::Object();
  summary.Set("population", Json::Int(int64_t(plan.population)));
  summary.Set("median_atoms", Json::Double(plan.median_atoms));
  summary.Set("hot_set", Json::Int(int64_t(plan.hot_set)));
  summary.Set("warm_leaves", Json::Int(int64_t(plan.warm_leaves)));
  summary.Set("distinct_requests", Json::Int(int64_t(plan.bodies.size())));
  std::printf("%s\n", summary.Dump().c_str());
  return 0;
}

bool IsRead(const Plan& plan, const Sample& s) {
  return !plan.bodies[s.body].is_write;
}

/// Throughput of the successful reads in phase `p`: completions over the
/// time from the phase's first due time to its last completion.
double PhaseRate(const Plan& plan, const Replay& r, size_t p) {
  uint64_t first = UINT64_MAX;
  uint64_t last = 0;
  size_t done = 0;
  for (const Sample& s : r.samples) {
    if (s.phase != p || !IsRead(plan, s)) continue;
    if (s.due_ns != 0) first = std::min(first, s.due_ns);
    if (s.ok()) {
      ++done;
      last = std::max(last, s.end_ns);
    }
  }
  return done == 0 || last <= first ? 0.0 : double(done) * 1e9 / double(last - first);
}

int RunLoad(const Args& a) {
  const Plan plan = MakePlan(a);
  WireTransport wire(a.port, kMaxConnections);
  Replayer replayer(plan, &wire);
  Replay replay;
  std::fprintf(stderr, "servebench: %s seed %llu: %zu distinct requests\n",
               a.workload.c_str(), (unsigned long long)a.seed,
               plan.bodies.size());

  // The replay threads inherit the main thread's core; the correctness
  // check afterwards runs on every core again.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  if (a.cpu >= 0) {
    if (sched_getaffinity(0, sizeof(all_cpus), &all_cpus) != 0) Die("getaffinity");
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(a.cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) Die("setaffinity");
  }
  Json rungs = Json::Array();
  double max_read_rps = 0;
  for (size_t p = 0; p < plan.phases.size(); ++p) {
    replayer.RunPhase(p, 0, nullptr, &replay);
    if (plan.phases[p].name != "rung") continue;
    std::vector<double> lat = Latencies(replay.samples, [&](const Sample& s) {
      return s.phase == p;
    });
    const double p99 = Percentile(lat, 0.99);
    const double rate = PhaseRate(plan, replay, p);
    const bool met = p99 <= plan.latency_limit_ms &&
                     rate >= 0.97 * plan.phases[p].rate;
    Json rung = Json::Object();
    rung.Set("offered_rps", Json::Double(plan.phases[p].rate));
    rung.Set("achieved_rps", Json::Double(rate));
    rung.Set("p99_ms", Json::Double(p99));
    rung.Set("met", Json::Bool(met));
    rungs.Append(std::move(rung));
    if (!met) break;
    max_read_rps = rate;
  }
  replayer.RunProbes(&replay);
  wire.CloseAll();
  if (a.cpu >= 0 && sched_setaffinity(0, sizeof(all_cpus), &all_cpus) != 0) {
    Die("setaffinity");
  }

  // Per round (every phase but the ladder's rungs): read latency
  // percentiles and read throughput. The rounds of a workload carry the
  // same load, so they differ mainly by how much other tenants of the
  // machine slowed them, and that noise only ever slows a round. Each
  // metric is therefore taken from the quieter rounds: the lower quartile
  // of the rounds' latencies and the upper quartile of their throughputs.
  // A change to the program moves every round, so it moves these too.
  std::vector<double> p50s, tails, p99s, rates, reads, writes;
  double tail_q = 0;
  for (size_t p = 0; p < plan.phases.size(); ++p) {
    if (plan.phases[p].name == "rung") continue;
    std::vector<double> lat = Latencies(replay.samples, [&](const Sample& s) {
      return s.phase == p && IsRead(plan, s);
    });
    tail_q = TailQuantile(lat.size());
    p50s.push_back(Percentile(lat, 0.5));
    tails.push_back(Percentile(lat, tail_q));
    p99s.push_back(Percentile(lat, 0.99));
    rates.push_back(PhaseRate(plan, replay, p));
    reads.insert(reads.end(), lat.begin(), lat.end());
    std::vector<double> w = Latencies(replay.samples, [&](const Sample& s) {
      return s.phase == p && !IsRead(plan, s);
    });
    writes.insert(writes.end(), w.begin(), w.end());
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n == 0 ? 0.0 : (v[(n - 1) / 2] + v[n / 2]) / 2;
  };
  auto list = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) s += (s.empty() ? "" : " ") + std::to_string(x);
    return s;
  };
  std::fprintf(stderr,
               "servebench: rounds p50_ms [%s] tail_ms [%s] rps [%s]\n",
               list(p50s).c_str(), list(tails).c_str(), list(rates).c_str());
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t read_failed = 0;
  uint64_t write_failed = 0;
  uint64_t reads_n = 0;
  uint64_t writes_n = 0;
  int64_t stats[5] = {0, 0, 0, 0, 0};
  uint64_t enumerates = 0;
  std::vector<double> lateness;
  for (const Sample& s : replay.samples) {
    ++attempted;
    const bool read = IsRead(plan, s);
    (read ? reads_n : writes_n) += 1;
    if (!s.ok()) {
      ++failed;
      (read ? read_failed : write_failed) += 1;
    } else if (read) {
      ++enumerates;
      for (int i = 0; i < 5; ++i) stats[i] += s.stats[i];
    }
    // Lateness of the open-loop streams of the rounds (the ladder's
    // overloaded rungs fall behind by design).
    if (s.open && plan.phases[s.phase].name != "rung" && s.start_ns != 0 &&
        s.start_ns >= s.due_ns) {
      lateness.push_back(double(s.start_ns - s.due_ns) / 1e6);
    }
  }
  attempted += plan.probes.size();
  std::sort(lateness.begin(), lateness.end());
  // Share of the sent reads that repeat a request sent earlier in the run:
  // the most that a cache keyed on the whole request could serve.
  std::set<uint32_t> distinct_reads;
  uint64_t sent_reads = 0;
  for (const Sample& s : replay.samples) {
    if (s.start_ns == 0 || !IsRead(plan, s)) continue;
    ++sent_reads;
    distinct_reads.insert(s.body);
  }

  std::vector<std::string> problems = Check(plan, &replay, a.corrupt);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "servebench: MISMATCH %s\n", p.c_str());
  }

  Json metrics = Json::Object();
  std::sort(p50s.begin(), p50s.end());
  std::sort(tails.begin(), tails.end());
  std::sort(rates.begin(), rates.end());
  metrics.Set("read_p50_ms", Metric(Percentile(p50s, 0.25), "ms"));
  metrics.Set("read_tail_ms", Metric(Percentile(tails, 0.25), "ms"));
  metrics.Set("read_rps", Metric(Percentile(rates, 0.75), "1/s"));

  Json side = Json::Object();
  side.Set("reads", Json::Int(int64_t(reads.size())));
  side.Set("read_tail_quantile", Json::Double(tail_q));
  side.Set("read_p99_ms", Json::Double(median(p99s)));
  side.Set("read_error_ratio",
           Json::Double(reads_n ? double(read_failed) / double(reads_n) : 0));
  side.Set("writes", Json::Int(int64_t(writes.size())));
  if (!writes.empty()) {
    side.Set("write_p50_ms", Json::Double(Percentile(writes, 0.5)));
    side.Set("write_tail_ms",
             Json::Double(Percentile(writes, TailQuantile(writes.size()))));
    side.Set("write_tail_quantile", Json::Double(TailQuantile(writes.size())));
    side.Set("write_error_ratio",
             Json::Double(double(write_failed) / double(writes_n)));
  }
  if (!lateness.empty()) {
    side.Set("lateness_p50_ms", Json::Double(Percentile(lateness, 0.5)));
    side.Set("lateness_p99_ms", Json::Double(Percentile(lateness, 0.99)));
    side.Set("lateness_max_ms", Json::Double(lateness.back()));
  }
  if (rungs.size() > 0) {
    side.Set("latency_limit_ms", Json::Double(plan.latency_limit_ms));
    side.Set("max_read_rps", Json::Double(max_read_rps));
    side.Set("rungs", std::move(rungs));
  }
  Json sums = Json::Object();
  for (int i = 0; i < 5; ++i) sums.Set(kStatNames[i], Json::Int(stats[i]));
  sums.Set("enumerates", Json::Int(int64_t(enumerates)));
  side.Set("response_stats", std::move(sums));
  side.Set("read_repeat_share",
           Json::Double(sent_reads == 0 ? 0.0
                                        : 1.0 - double(distinct_reads.size()) /
                                                    double(sent_reads)));
  side.Set("checked_requests", Json::Int(int64_t(replay.digests.size())));
  side.Set("acked_writes", Json::Int(int64_t(replay.acked.size())));

  Json out = Json::Object();
  out.Set("correct", Json::Bool(problems.empty()));
  out.Set("attempted", Json::Int(int64_t(attempted)));
  out.Set("failed", Json::Int(int64_t(failed)));
  out.Set("metrics", std::move(metrics));
  out.Set("side", std::move(side));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// --- Traced replay ----------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return hypre::telemetry::MetricsRegistry::Global()
      .GetCounter(name, "bench", "")
      ->Value();
}

hypre::telemetry::HistogramSnapshot HistogramValue(const char* name) {
  return hypre::telemetry::MetricsRegistry::Global()
      .GetHistogram(name, "bench", "")
      ->Snapshot();
}

/// Mean of the samples a histogram recorded between two snapshots.
double MeanBetween(const hypre::telemetry::HistogramSnapshot& before,
                   const hypre::telemetry::HistogramSnapshot& after) {
  const uint64_t n = after.count - before.count;
  return n == 0 ? 0.0 : double(after.sum - before.sum) / double(n);
}

/// Whether a request runs a job on the tenant's writer thread.
bool HopsWriter(const Body& body) {
  return body.is_write || body.text.find("\"refresh\":true") != std::string::npos;
}

struct Pass {
  Replay replay;
  std::vector<SpanLog> logs;  // one per connection
  SpanLog writer;             // the tenant's writer thread
  SpanLog probe;              // the writer-queue probe
  SpanLog encode;             // encodes timed after the phases
  /// Encode time of each distinct read body's result, microseconds.
  std::map<uint32_t, double> encode_us;
  uint64_t writes_shed = 0;
  uint64_t admission_rejected = 0;
  uint64_t deferred = 0;
  uint64_t full_rebuilds = 0;
  uint64_t wal_bytes = 0;
  double admission_wait_us = 0;
  double enumerate_us = 0;
};

/// One in-process replay of the plan's first phase on a fresh tenant.
Pass RunPass(const Args& a, const Plan& plan, bool traced, const char* tag,
             double seconds) {
  Pass pass;
  hypre::server::TenantSpec spec;
  spec.name = kTenant;
  spec.synthetic_papers = kPapers;
  spec.synthetic_seed = kUniverseSeed;
  if (plan.storage) {
    spec.storage_dir = a.work + "/store-" + tag;
    std::filesystem::remove_all(spec.storage_dir);
  }
  {
    hypre::server::TenantManager tenants({spec}, {});
    InProcessTransport transport(&tenants);
    auto tenant = Must(tenants.Get(kTenant), "tenant open");
    if (!plan.warmup.empty()) {
      Body warm;
      warm.target = std::string("/v1/") + kTenant + "/enumerate";
      warm.text = plan.warmup;
      if (transport.Send(0, warm, 0, nullptr).status != 200) Die("warm-up");
    }
    const uint64_t deferred0 = CounterValue("hypre_delta_refresh_deferred_total");
    const uint64_t rebuilds0 = CounterValue("hypre_delta_full_rebuilds_total");
    const uint64_t wal0 = CounterValue("hypre_storage_wal_bytes_total");
    const auto wait0 = HistogramValue("hypre_api_admission_wait_us");
    const auto request0 = HistogramValue("hypre_api_request_us");
    Replayer replayer(plan, &transport);
    {
      std::unique_ptr<WriterTrace> writer_trace;
      if (traced) {
        pass.logs.resize(plan.phases[0].streams.size());
        writer_trace = std::make_unique<WriterTrace>(tenant.get());
      }
      // Both passes carry the probe's load, so the overhead figure
      // compares like with like.
      std::unique_ptr<WriterQueueProbe> probe;
      if (plan.storage) {
        probe = std::make_unique<WriterQueueProbe>(
            tenant.get(), traced ? &pass.probe : nullptr);
      }
      double left = seconds;
      for (size_t p = 0; p < plan.phases.size() && left > 0; ++p) {
        if (plan.phases[p].name != plan.phases[0].name) continue;
        replayer.RunPhase(p, left, traced ? &pass.logs : nullptr, &pass.replay);
        left -= plan.phases[p].seconds;
      }
      if (probe != nullptr) probe->Stop();
      if (writer_trace != nullptr) writer_trace->CopyTo(&pass.writer);
    }
    pass.deferred = CounterValue("hypre_delta_refresh_deferred_total") - deferred0;
    pass.full_rebuilds = CounterValue("hypre_delta_full_rebuilds_total") - rebuilds0;
    pass.wal_bytes = CounterValue("hypre_storage_wal_bytes_total") - wal0;
    pass.admission_wait_us =
        MeanBetween(wait0, HistogramValue("hypre_api_admission_wait_us"));
    pass.enumerate_us =
        MeanBetween(request0, HistogramValue("hypre_api_request_us"));
    pass.writes_shed = tenant->writes_shed();
    pass.admission_rejected = tenant->session()->scheduler().stats().rejected;
    if (traced) {
      // Handle's encode cannot be timed from outside it, so after the
      // phases each distinct read's result is recomputed by a direct
      // Session::Enumerate and its encode is timed.
      for (const Sample& s : pass.replay.samples) {
        const Body& body = plan.bodies[s.body];
        if (!s.ok() || body.is_write || pass.encode_us.count(s.body) > 0) {
          continue;
        }
        auto decoded = Must(hypre::server::DecodeEnumerateRequest(body.text),
                            "encode decode");
        decoded.request.refresh = false;
        auto result =
            Must(tenant->session()->Enumerate(decoded.request), "encode run");
        const uint64_t start = NowNs();
        const std::string bytes = hypre::server::EncodeEnumerationResult(
            decoded.request.algorithm, result);
        const uint64_t end = NowNs();
        if (bytes.empty()) Die("empty encode");
        pass.encode.Add("codec.encode", start, end, kNoRequest);
        pass.encode_us[s.body] = double(end - start) / 1e3;
      }
    }
    replayer.RunProbes(&pass.replay);
    tenant.reset();
    MustOk(tenants.ShutdownAll(), "tenant shutdown");
  }
  if (plan.storage) std::filesystem::remove_all(a.work + "/store-" + tag);
  return pass;
}

double MeanServiceUs(const Replay& r) {
  double total = 0;
  size_t n = 0;
  for (const Sample& s : r.samples) {
    if (!s.ok()) continue;
    total += double(s.end_ns - s.start_ns) / 1e3;
    ++n;
  }
  return n == 0 ? 0 : total / double(n);
}

int RunTrace(const Args& a) {
  const Plan plan = MakePlan(a);
  // The rounds only (not hot_read's rate ladder), for half the run but at
  // most 5 s, once untraced and once traced: the per-layer means settle
  // well within that, and the spans stay a few tens of megabytes.
  const double seconds = std::min(a.seconds / 2, 5.0);
  Pass plain = RunPass(a, plan, false, "plain", seconds);
  Pass traced = RunPass(a, plan, true, "traced", seconds);
  std::vector<std::string> problems = Check(plan, &traced.replay, a.corrupt);
  for (const std::string& p : Check(plan, &plain.replay, false)) {
    problems.push_back("untraced pass: " + p);
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "servebench: MISMATCH %s\n", p.c_str());
  }

  std::vector<std::pair<std::string, const SpanLog*>> logs;
  for (size_t c = 0; c < traced.logs.size(); ++c) {
    logs.emplace_back("conn" + std::to_string(c), &traced.logs[c]);
  }
  logs.emplace_back("writer", &traced.writer);
  logs.emplace_back("writer_probe", &traced.probe);
  logs.emplace_back("encode", &traced.encode);

  // Self time per span name: duration minus the direct children's.
  struct Agg {
    uint64_t count = 0;
    double self_us = 0;
    double total_us = 0;
  };
  std::map<std::string, Agg> agg;
  double writer_root_us = 0;
  for (const auto& [thread, log] : logs) {
    const auto& spans = log->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_us[s.parent] += double(s.end_ns - s.start_ns) / 1e3;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = double(spans[i].end_ns - spans[i].start_ns) / 1e3;
      Agg& g = agg[spans[i].name];
      ++g.count;
      g.total_us += dur;
      g.self_us += std::max(0.0, dur - child_us[i]);
      if (log == &traced.writer && spans[i].parent < 0) writer_root_us += dur;
    }
  }
  if (!a.spans_out.empty()) {
    std::ofstream f(a.spans_out);
    for (const auto& [thread, log] : logs) {
      const auto& spans = log->spans();
      for (size_t i = 0; i < spans.size(); ++i) {
        f << "{\"thread\":\"" << thread << "\",\"id\":" << i << ",\"name\":\""
          << spans[i].name << "\",\"start_ns\":" << spans[i].start_ns
          << ",\"end_ns\":" << spans[i].end_ns
          << ",\"parent\":" << spans[i].parent << ",\"request\":"
          << (spans[i].request == kNoRequest ? int64_t(-1)
                                             : int64_t(spans[i].request))
          << "}\n";
      }
    }
  }
  for (const auto& [name, g] : agg) {
    std::fprintf(stderr, "servebench: span %-34s n=%-7llu self=%10.1fus total=%10.1fus\n",
                 name.c_str(), (unsigned long long)g.count, g.self_us, g.total_us);
  }

  uint64_t requests = 0, enumerates = 0, writes = 0, atoms = 0, writer_jobs = 0;
  double response_bytes = 0;
  double encode_us = 0;
  int64_t stats[5] = {0, 0, 0, 0, 0};
  for (const Sample& s : traced.replay.samples) {
    if (!s.ok()) continue;
    const Body& body = plan.bodies[s.body];
    ++requests;
    response_bytes += double(s.wire_bytes);
    if (HopsWriter(body)) ++writer_jobs;
    if (body.is_write) {
      ++writes;
      continue;
    }
    ++enumerates;
    atoms += body.predicates.size();
    encode_us += traced.encode_us[s.body];
    for (int i = 0; i < 5; ++i) stats[i] += s.stats[i];
  }
  auto per = [](double v, uint64_t n) { return n == 0 ? 0.0 : v / double(n); };
  auto self = [&](const char* name) { return agg[name].self_us; };
  auto mean_total = [&](const char* name) {
    return per(agg[name].total_us, agg[name].count);
  };
  auto mean_self = [&](const char* name) {
    return per(agg[name].self_us, agg[name].count);
  };

  Json m = Json::Object();
  auto put = [&](const char* name, double v, const char* unit) {
    m.Set(name, Metric(v, unit));
  };
  put("http.parse_us", per(self("http.parse"), requests), "us");
  put("http.serialize_us", per(self("http.serialize"), requests), "us");
  put("http.response_bytes", per(response_bytes, requests), "bytes");
  put("server.handle_us", per(self("server.handle"), requests), "us");
  put("codec.decode_us", per(self("codec.decode"), requests), "us");
  put("codec.encode_us", per(encode_us, enumerates), "us");
  put("sqlparse.parse_us", per(self("sqlparse.parse"), enumerates), "us");
  put("sqlparse.atoms_per_req", per(double(atoms), enumerates), "count");
  put("tenant.get_us", per(self("tenant.get"), requests), "us");
  put("tenant.writer_wait_us", mean_total("tenant.writer_wait"), "us");
  put("tenant.writer_run_us", per(writer_root_us, writer_jobs), "us");
  put("tenant.writes_shed", double(traced.writes_shed), "count");
  put("api.admission_wait_us", traced.admission_wait_us, "us");
  put("api.admission_rejected", double(traced.admission_rejected), "count");
  put("api.enumerate_us", traced.enumerate_us, "us");
  put("engine.prefetch_us", per(self("engine.prefetch"), enumerates), "us");
  put("engine.leaf_queries_per_req", per(double(stats[0]), enumerates), "count");
  put("engine.leaf_hit_ratio",
      atoms == 0 ? 0.0 : 1.0 - double(stats[0]) / double(atoms), "ratio");
  put("delta.refresh_us", mean_total("delta.refresh"), "us");
  put("delta.refresh_deferred", double(traced.deferred), "count");
  put("delta.full_rebuilds", double(traced.full_rebuilds), "count");
  put("algo.peps.run_us", mean_total("algo.peps.run"), "us");
  put("algo.ta.run_us", mean_total("algo.ta.run"), "us");
  put("algo.combine-two.run_us", mean_total("algo.combine-two.run"), "us");
  put("algo.partially-combine-all.run_us",
      mean_total("algo.partially-combine-all.run"), "us");
  put("prober.batches_per_req", per(double(stats[2]), enumerates), "count");
  put("prober.probes_per_batch", per(double(stats[3]), uint64_t(stats[2])), "count");
  put("prober.shard_passes_per_req", per(double(stats[4]), enumerates), "count");
  put("storage.wal_commit_us", mean_self("storage.wal_commit"), "us");
  put("storage.fsync_us", mean_total("storage.fsync"), "us");
  put("storage.wal_bytes_per_write", per(double(traced.wal_bytes), writes), "bytes");
  const double plain_us = MeanServiceUs(plain.replay);
  const double traced_us = MeanServiceUs(traced.replay);
  put("trace.overhead_pct",
      plain_us == 0 ? 0.0 : 100.0 * (traced_us - plain_us) / plain_us, "%");

  uint64_t attempted = plan.probes.size();
  uint64_t failed = 0;
  for (const Sample& s : traced.replay.samples) {
    ++attempted;
    if (!s.ok()) ++failed;
  }
  Json out = Json::Object();
  out.Set("correct", Json::Bool(problems.empty()));
  out.Set("attempted", Json::Int(int64_t(attempted)));
  out.Set("failed", Json::Int(int64_t(failed)));
  out.Set("metrics", std::move(m));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const servebench::Args args = servebench::ParseArgs(argc, argv);
  if (args.mode == "plan") return servebench::RunPlan(args);
  if (args.mode == "load") return servebench::RunLoad(args);
  if (args.mode == "trace") return servebench::RunTrace(args);
  servebench::Die("unknown mode " + args.mode);
}
