// End-to-end tests for the HTTP serving layer: a real HttpServer on a real
// loopback socket, driven through the tiny client in server/http.h.
//
// The load-bearing test is the DIFFERENTIAL: for every one of the six
// algorithms, the bytes that come back over the wire must be IDENTICAL to
// running the same EnumerationRequest on a directly constructed Session
// over an identically generated database and encoding the result through
// the same codec. The server adds routing, tenancy, a writer thread, and
// admission — none of which may perturb a single byte of the result.
//
// Also covered: HTTP framing (bounded parsing, 400/408/413/431/501),
// malformed JSON -> 400, unknown tenant -> 404, method checks -> 405,
// mutate round-trips (applied + visible + epoch advance), deadline-based
// shedding -> 429 + Retry-After, concurrent mutate+read mixes (the TSan
// job runs this file), keep-alive, /metrics, /healthz, and graceful Stop()
// under load.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "hypre/api/session.h"
#include "hypre/server/codec.h"
#include "hypre/server/http.h"
#include "hypre/server/server.h"
#include "hypre/server/service.h"
#include "hypre/server/tenant.h"
#include "hypre/telemetry/telemetry.h"
#include "workload/dblp_generator.h"

namespace hypre {
namespace server {
namespace {

constexpr size_t kPapers = 400;
constexpr uint64_t kSeed = 7;
const char kBaseSql[] =
    "SELECT * FROM dblp JOIN dblp_author ON dblp.pid = dblp_author.pid";

/// The same database TenantManager builds for a synthetic tenant — the
/// differential's ground truth must be grown from identical bytes.
std::unique_ptr<reldb::Database> MakeTenantDatabase() {
  workload::DblpConfig config;
  config.num_papers = kPapers;
  config.num_authors = kPapers / 3;
  config.seed = kSeed;
  auto db = std::make_unique<reldb::Database>();
  auto stats = workload::GenerateDblp(config, db.get());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return db;
}

/// {"predicate", intensity} pairs every test reuses. Venue names come from
/// workload::VenueName's familiar head ranks.
std::vector<std::pair<std::string, double>> TestPreferences() {
  return {{"dblp.venue='SIGMOD'", 0.9},
          {"dblp.venue='VLDB'", 0.7},
          {"dblp.year>2005", 0.5},
          {"dblp.year<1995", 0.3}};
}

/// Builds an enumerate body. `extra` keys are merged in last.
std::string EnumerateBody(const std::string& algorithm, Json extra = Json()) {
  Json body = Json::Object();
  body.Set("algorithm", Json::Str(algorithm));
  body.Set("base_query", Json::Str(kBaseSql));
  body.Set("key_column", Json::Str("dblp.pid"));
  Json prefs = Json::Array();
  for (const auto& [predicate, intensity] : TestPreferences()) {
    Json p = Json::Object();
    p.Set("predicate", Json::Str(predicate));
    p.Set("intensity", Json::Double(intensity));
    prefs.Append(std::move(p));
  }
  body.Set("preferences", std::move(prefs));
  if (extra.kind() == Json::Kind::kObject) {
    // Json has no iteration API for objects beyond Find; merge by Dump is
    // overkill — callers pass the handful of knobs below instead.
  }
  if (const Json* k = extra.Find("k")) body.Set("k", *k);
  if (const Json* seed = extra.Find("seed")) body.Set("seed", *seed);
  if (const Json* budget = extra.Find("probe_budget")) {
    body.Set("probe_budget", *budget);
  }
  if (const Json* nap = extra.Find("debug_sleep_ms")) {
    body.Set("debug_sleep_ms", *nap);
  }
  if (const Json* deadline = extra.Find("deadline_ms")) {
    body.Set("deadline_ms", *deadline);
  }
  return body.Dump();
}

/// The matching DIRECT request, decoded through the same codec the server
/// uses so both sides agree on every default.
api::EnumerationRequest DirectRequest(const std::string& body) {
  auto decoded = DecodeEnumerateRequest(body);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded->request;
}

/// One HTTP request over a fresh connection.
Result<SimpleHttpReply> Fetch(
    uint16_t port, const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  HYPRE_ASSIGN_OR_RETURN(int fd, ConnectTcp("127.0.0.1", port));
  Result<SimpleHttpReply> reply =
      SendHttpRequest(fd, method, target, body, headers);
  ::close(fd);
  return reply;
}

const std::string* FindHeader(const SimpleHttpReply& reply,
                              const std::string& lower_name) {
  for (const auto& [name, value] : reply.headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

/// Drops the "stats" object from an encoded result. Probe stats depend on
/// the probe cache's temperature (a warm repeat has fewer leaf queries), so
/// repeat-stability assertions compare everything BUT them; the cold-vs-cold
/// differential still compares full bodies.
std::string StripStats(const std::string& body) {
  const size_t start = body.find(",\"stats\":{");
  if (start == std::string::npos) return body;
  const size_t end = body.find('}', start);
  if (end == std::string::npos) return body;
  return body.substr(0, start) + body.substr(end + 1);
}

bool WaitFor(const std::function<bool()>& predicate, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

/// Fixture: one server over tenants "alpha" and "beta" (identical synthetic
/// universes), debug endpoints on, fresh per test.
class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(api::AdmissionScheduler::Options scheduler = {},
                   size_t writer_queue_depth = 16) {
    std::vector<TenantSpec> specs(2);
    specs[0].name = "alpha";
    specs[0].synthetic_papers = kPapers;
    specs[0].synthetic_seed = kSeed;
    specs[1].name = "beta";
    specs[1].synthetic_papers = kPapers;
    specs[1].synthetic_seed = kSeed;
    TenantManagerOptions topts;
    topts.scheduler = scheduler;
    topts.writer_queue_depth = writer_queue_depth;
    tenants_ = std::make_unique<TenantManager>(std::move(specs), topts);
    ServiceOptions sopts;
    sopts.enable_debug = true;
    service_ = std::make_unique<Service>(tenants_.get(), sopts);
    HttpServerOptions hopts;
    hopts.num_workers = 4;
    server_ = std::make_unique<HttpServer>(service_.get(), hopts);
    auto started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (tenants_ != nullptr) {
      auto shutdown = tenants_->ShutdownAll();
      EXPECT_TRUE(shutdown.ok()) << shutdown.ToString();
    }
  }

  uint16_t port() const { return server_->port(); }

  std::unique_ptr<TenantManager> tenants_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<HttpServer> server_;
};

// --- Framing unit tests (no sockets) ---------------------------------------

TEST(HttpFraming, ParsesARequestHead) {
  HttpRequest request;
  int error_status = 0;
  auto length = ParseRequestHead(
      "POST /v1/alpha/enumerate?x=1 HTTP/1.1\r\nHost: h\r\n"
      "Content-Length: 12\r\nX-Hypre-Deadline-Ms:  250 \r\n\r\n",
      &request, &error_status);
  ASSERT_TRUE(length.ok()) << length.status().ToString();
  EXPECT_EQ(*length, 12u);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/v1/alpha/enumerate");
  EXPECT_EQ(request.query, "x=1");
  ASSERT_NE(request.FindHeader("x-hypre-deadline-ms"), nullptr);
  EXPECT_EQ(*request.FindHeader("x-hypre-deadline-ms"), "250");
  EXPECT_FALSE(request.WantsClose());
}

TEST(HttpFraming, RejectsProtocolFaultsWithTheRightStatus) {
  const std::vector<std::pair<std::string, int>> cases = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET /x HTTP/2.0\r\n\r\n", 400},
      {"GET x HTTP/1.1\r\n\r\n", 400},          // not origin-form
      {"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
      {"GET /x HTTP/1.1\r\nContent-Length: 9x\r\n\r\n", 400},
      {"GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n",
       400},
      {"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
  };
  for (const auto& [head, want_status] : cases) {
    HttpRequest request;
    int error_status = 0;
    auto result = ParseRequestHead(head, &request, &error_status);
    EXPECT_FALSE(result.ok()) << head;
    EXPECT_EQ(error_status, want_status) << head;
  }
}

TEST(HttpFraming, SerializesAResponse) {
  HttpResponse response;
  response.status = 429;
  response.body = "{}";
  response.headers.emplace_back("Retry-After", "1");
  const std::string wire = SerializeHttpResponse(response, false);
  EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 2), "{}");
}

// --- The differential: HTTP bytes == direct Session bytes ------------------

TEST_F(HttpServerTest, AllSixAlgorithmsAreByteIdenticalToDirectSession) {
  StartServer();
  api::Session direct(MakeTenantDatabase());

  struct Case {
    const char* algorithm;
    const char* extra;  // JSON object merged into the body
  };
  const std::vector<Case> cases = {
      {"exhaustive", "{}"},
      {"combine-two", "{}"},
      {"partially-combine-all", "{}"},
      {"bias-random", "{\"seed\":11,\"probe_budget\":64}"},
      {"peps", "{\"k\":5}"},
      {"peps", "{}"},  // k=0: combination records
      {"ta", "{\"k\":3}"},
  };
  for (const Case& c : cases) {
    auto extra = Json::Parse(c.extra, "test extra");
    ASSERT_TRUE(extra.ok());
    const std::string body = EnumerateBody(c.algorithm, std::move(*extra));

    auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate", body);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->status, 200) << c.algorithm << ": " << reply->body;

    auto direct_result = direct.Enumerate(DirectRequest(body));
    ASSERT_TRUE(direct_result.ok())
        << c.algorithm << ": " << direct_result.status().ToString();
    const std::string expected =
        EncodeEnumerationResult(c.algorithm, *direct_result);
    EXPECT_EQ(reply->body, expected) << c.algorithm << " " << c.extra;
  }
}

TEST_F(HttpServerTest, TenantsAreIsolatedAndDeterministic) {
  StartServer();
  const std::string body = EnumerateBody("combine-two");
  auto alpha = Fetch(port(), "POST", "/v1/alpha/enumerate", body);
  auto beta = Fetch(port(), "POST", "/v1/beta/enumerate", body);
  ASSERT_TRUE(alpha.ok() && beta.ok());
  ASSERT_EQ(alpha->status, 200);
  ASSERT_EQ(beta->status, 200);
  // Identical seeds -> identical universes -> identical bytes; and a repeat
  // against a warm tenant is stable.
  EXPECT_EQ(alpha->body, beta->body);
  auto again = Fetch(port(), "POST", "/v1/alpha/enumerate", body);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(StripStats(again->body), StripStats(alpha->body));
  EXPECT_EQ(tenants_->num_open(), 2u);
}

// --- Error mapping ---------------------------------------------------------

TEST_F(HttpServerTest, MalformedJsonIs400) {
  StartServer();
  for (const char* bad : {"", "{", "not json", "[1,2]", "{\"a\":01}",
                          "{\"algorithm\":\"peps\"}"}) {
    auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate", bad);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status, 400) << bad;
    auto parsed = Json::Parse(reply->body, "error body");
    ASSERT_TRUE(parsed.ok()) << reply->body;
    EXPECT_TRUE(parsed->Has("error")) << reply->body;
  }
}

TEST_F(HttpServerTest, DeeplyNestedPredicateIs400AndServerSurvives) {
  StartServer();
  // ~400 KB: a predicate nested 200k parentheses deep. Unbounded recursive
  // descent would overflow the worker's stack and take every tenant down.
  const size_t kDepth = 200000;
  Json body = Json::Object();
  body.Set("algorithm", Json::Str("combine-two"));
  body.Set("base_query", Json::Str(kBaseSql));
  body.Set("key_column", Json::Str("dblp.pid"));
  Json prefs = Json::Array();
  Json p = Json::Object();
  p.Set("predicate", Json::Str(std::string(kDepth, '(') + "dblp.venue='V1'" +
                               std::string(kDepth, ')')));
  p.Set("intensity", Json::Double(0.5));
  prefs.Append(std::move(p));
  body.Set("preferences", std::move(prefs));

  auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate", body.Dump());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, 400) << reply->body.substr(0, 200);
  EXPECT_NE(reply->body.find("nests deeper"), std::string::npos)
      << reply->body.substr(0, 200);

  auto health = Fetch(port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(HttpServerTest, OversizedExhaustiveRequestIs400AndServerSurvives) {
  StartServer();
  // One past the fixed cap of 20: an unbounded run would walk 2^21 - 1
  // subsets (2^64 with 64 preferences: undefined shift, unbounded memory).
  // The request also asks for a cap of 64 through the retired wire field;
  // the codec ignores it like any unknown key, so the cap holds.
  Json body = Json::Object();
  body.Set("algorithm", Json::Str("exhaustive"));
  body.Set("base_query", Json::Str(kBaseSql));
  body.Set("key_column", Json::Str("dblp.pid"));
  Json prefs = Json::Array();
  for (int i = 0; i < 21; ++i) {
    Json p = Json::Object();
    p.Set("predicate", Json::Str("dblp_author.aid=" + std::to_string(i)));
    p.Set("intensity", Json::Double(0.5));
    prefs.Append(std::move(p));
  }
  body.Set("preferences", std::move(prefs));
  body.Set("max_exhaustive_n", Json::Int(64));

  auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate", body.Dump());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, 400) << reply->body.substr(0, 200);
  EXPECT_NE(reply->body.find("cap 20"), std::string::npos)
      << reply->body.substr(0, 200);

  auto health = Fetch(port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(HttpServerTest, TooManyPreferencesIs400AndServerSurvives) {
  StartServer();
  // One past the wire cap (~13 KB of short predicates). combine-two builds
  // its whole C(N,2) pair frontier before the probe budget trims it, so a
  // budget alone does not bound the allocation; the cap does.
  Json body = Json::Object();
  body.Set("algorithm", Json::Str("combine-two"));
  body.Set("base_query", Json::Str(kBaseSql));
  body.Set("key_column", Json::Str("dblp.pid"));
  body.Set("probe_budget", Json::Int(1));
  Json prefs = Json::Array();
  for (size_t i = 0; i <= kMaxRequestPreferences; ++i) {
    Json p = Json::Object();
    p.Set("predicate", Json::Str("dblp_author.aid=" + std::to_string(i)));
    p.Set("intensity", Json::Double(0.5));
    prefs.Append(std::move(p));
  }
  body.Set("preferences", std::move(prefs));

  auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate", body.Dump());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, 400) << reply->body.substr(0, 200);
  EXPECT_NE(reply->body.find("cap " + std::to_string(kMaxRequestPreferences)),
            std::string::npos)
      << reply->body.substr(0, 200);

  auto health = Fetch(port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(HttpServerTest, UnknownTenantIs404AndUnknownRouteIs404) {
  StartServer();
  auto tenant = Fetch(port(), "POST", "/v1/nobody/enumerate",
                      EnumerateBody("combine-two"));
  ASSERT_TRUE(tenant.ok());
  EXPECT_EQ(tenant->status, 404);
  for (const char* target : {"/", "/v1", "/v1/alpha", "/v1/alpha/nope",
                             "/v2/alpha/enumerate", "/favicon.ico"}) {
    auto reply = Fetch(port(), "GET", target, "");
    ASSERT_TRUE(reply.ok()) << target;
    EXPECT_EQ(reply->status, 404) << target;
  }
}

TEST_F(HttpServerTest, WrongMethodIs405) {
  StartServer();
  auto get_enumerate = Fetch(port(), "GET", "/v1/alpha/enumerate", "");
  ASSERT_TRUE(get_enumerate.ok());
  EXPECT_EQ(get_enumerate->status, 405);
  auto post_stats = Fetch(port(), "POST", "/v1/alpha/stats", "{}");
  ASSERT_TRUE(post_stats.ok());
  EXPECT_EQ(post_stats->status, 405);
  auto post_metrics = Fetch(port(), "POST", "/metrics", "{}");
  ASSERT_TRUE(post_metrics.ok());
  EXPECT_EQ(post_metrics->status, 405);
}

TEST_F(HttpServerTest, UnknownAlgorithmIs400) {
  StartServer();
  auto reply =
      Fetch(port(), "POST", "/v1/alpha/enumerate", EnumerateBody("quantum"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, 400);
  EXPECT_NE(reply->body.find("quantum"), std::string::npos);
}

TEST_F(HttpServerTest, RawProtocolGarbageGets400AndClose) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAllToSocket(*fd, "EHLO hypre\r\n\r\n").ok());
  std::string buffer;
  char chunk[1024];
  for (;;) {
    ssize_t n = ::recv(*fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(*fd);
  EXPECT_NE(buffer.find("HTTP/1.1 400"), std::string::npos) << buffer;
  EXPECT_NE(buffer.find("Connection: close"), std::string::npos);
}

// --- Mutations -------------------------------------------------------------

TEST_F(HttpServerTest, MutateRoundTripsAndAdvancesTheEpoch) {
  StartServer();
  const std::string probe = EnumerateBody("combine-two");
  auto before = Fetch(port(), "POST", "/v1/alpha/enumerate", probe);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->status, 200);
  auto before_doc = Json::Parse(before->body, "before");
  ASSERT_TRUE(before_doc.ok());
  const int64_t epoch_before = before_doc->GetInt("epoch", "t").value();

  // Append two fresh SIGMOD papers (and author links so the join sees
  // them), then delete one of them again.
  Json ops = Json::Array();
  auto append = [&](const char* table, Json row) {
    Json op = Json::Object();
    op.Set("op", Json::Str("append"));
    op.Set("table", Json::Str(table));
    op.Set("row", std::move(row));
    ops.Append(std::move(op));
  };
  Json paper1 = Json::Array();
  paper1.Append(Json::Int(900001));
  paper1.Append(Json::Str("Injected over HTTP"));
  paper1.Append(Json::Int(2007));
  paper1.Append(Json::Str("SIGMOD"));
  append("dblp", std::move(paper1));
  Json paper2 = Json::Array();
  paper2.Append(Json::Int(900002));
  paper2.Append(Json::Str("Also injected"));
  paper2.Append(Json::Int(2008));
  paper2.Append(Json::Str("SIGMOD"));
  append("dblp", std::move(paper2));
  Json link1 = Json::Array();
  link1.Append(Json::Int(900001));
  link1.Append(Json::Int(1));
  append("dblp_author", std::move(link1));
  Json link2 = Json::Array();
  link2.Append(Json::Int(900002));
  link2.Append(Json::Int(2));
  append("dblp_author", std::move(link2));
  Json body = Json::Object();
  body.Set("ops", std::move(ops));

  auto mutate = Fetch(port(), "POST", "/v1/alpha/mutate", body.Dump());
  ASSERT_TRUE(mutate.ok()) << mutate.status().ToString();
  ASSERT_EQ(mutate->status, 200) << mutate->body;
  auto mutate_doc = Json::Parse(mutate->body, "mutate");
  ASSERT_TRUE(mutate_doc.ok());
  EXPECT_EQ(mutate_doc->GetInt("applied", "t").value(), 4);
  // No storage attached: the commit flag is a no-op.
  EXPECT_FALSE(mutate_doc->Find("committed")->AsBool());

  // A refresh-bearing read (the default) sees the mutation: more tuples
  // for the SIGMOD predicate, and a bumped epoch.
  auto after = Fetch(port(), "POST", "/v1/alpha/enumerate", probe);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->status, 200);
  auto after_doc = Json::Parse(after->body, "after");
  ASSERT_TRUE(after_doc.ok());
  EXPECT_GT(after_doc->GetInt("epoch", "t").value(), epoch_before);
  EXPECT_NE(after->body, before->body);

  // The unchanged sibling tenant still serves the original bytes.
  auto beta = Fetch(port(), "POST", "/v1/beta/enumerate", probe);
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta->body, before->body);

  // Stats reflect the writer's work and the new live rows.
  auto stats = Fetch(port(), "GET", "/v1/alpha/stats", "");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->status, 200);
  auto stats_doc = Json::Parse(stats->body, "stats");
  ASSERT_TRUE(stats_doc.ok());
  auto writer = stats_doc->GetObject("writer", "t");
  ASSERT_TRUE(writer.ok());
  EXPECT_GE((*writer)->GetInt("executed", "t").value(), 1);
  auto tables = stats_doc->GetObject("tables", "t");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ((*tables)->GetInt("dblp", "t").value(),
            static_cast<int64_t>(kPapers + 2));
}

TEST_F(HttpServerTest, MutateFaultsAreTyped) {
  StartServer();
  // Unknown table -> 404; wrong arity -> 400 (Table::Append validation).
  auto unknown = Fetch(port(), "POST", "/v1/alpha/mutate",
                       R"({"ops":[{"op":"append","table":"nope","row":[1]}]})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404) << unknown->body;
  auto arity = Fetch(port(), "POST", "/v1/alpha/mutate",
                     R"({"ops":[{"op":"append","table":"dblp","row":[1]}]})");
  ASSERT_TRUE(arity.ok());
  EXPECT_EQ(arity->status, 400) << arity->body;
  auto bad_op = Fetch(port(), "POST", "/v1/alpha/mutate",
                      R"({"ops":[{"op":"truncate","table":"dblp"}]})");
  ASSERT_TRUE(bad_op.ok());
  EXPECT_EQ(bad_op->status, 400);
}

// --- Overload shedding -----------------------------------------------------

TEST_F(HttpServerTest, SaturatedAdmissionShedsWith429AndRetryAfter) {
  api::AdmissionScheduler::Options scheduler;
  scheduler.max_concurrent = 1;
  scheduler.max_queue_depth = 1;
  StartServer(scheduler);

  // Warm the tenant so the slow request below measures admission, not the
  // synthetic generation.
  auto warm = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two"));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->status, 200);
  auto tenant = tenants_->Get("alpha");
  ASSERT_TRUE(tenant.ok());

  // A debug-slowed request holds the single admission slot...
  std::thread slow([&] {
    auto extra = Json::Parse("{\"debug_sleep_ms\":700}", "t");
    ASSERT_TRUE(extra.ok());
    auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate",
                       EnumerateBody("combine-two", std::move(*extra)));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, 200);
  });
  ASSERT_TRUE(WaitFor([&] {
    return (*tenant)->session()->scheduler().stats().inflight == 1;
  }));

  // ...a second request with a short deadline times out in the queue...
  auto deadline_extra = Json::Parse("{\"deadline_ms\":60}", "t");
  ASSERT_TRUE(deadline_extra.ok());
  auto shed = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two", std::move(*deadline_extra)));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 429) << shed->body;
  ASSERT_NE(FindHeader(*shed, "retry-after"), nullptr);
  EXPECT_EQ(*FindHeader(*shed, "retry-after"), "1");
  EXPECT_NE(shed->body.find("Unavailable"), std::string::npos);

  // ...and with one waiter occupying the bounded queue, a third request is
  // rejected IMMEDIATELY (queue full), no deadline needed.
  std::thread queued([&] {
    auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate",
                       EnumerateBody("combine-two"));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, 200);  // eventually admitted FIFO
  });
  ASSERT_TRUE(WaitFor([&] {
    return (*tenant)->session()->scheduler().stats().queue_depth == 1;
  }));
  auto full_extra = Json::Parse("{\"deadline_ms\":2000}", "t");
  ASSERT_TRUE(full_extra.ok());
  auto full = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two", std::move(*full_extra)));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->status, 429) << full->body;
  EXPECT_NE(full->body.find("queue full"), std::string::npos) << full->body;

  slow.join();
  queued.join();
  EXPECT_GE((*tenant)->session()->scheduler().stats().rejected, 2u);
}

TEST_F(HttpServerTest, DeadlineHeaderIsHonored) {
  api::AdmissionScheduler::Options scheduler;
  scheduler.max_concurrent = 1;
  StartServer(scheduler);
  auto warm = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two"));
  ASSERT_EQ(warm->status, 200);
  auto tenant = tenants_->Get("alpha");
  ASSERT_TRUE(tenant.ok());

  std::thread slow([&] {
    auto extra = Json::Parse("{\"debug_sleep_ms\":500}", "t");
    auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate",
                       EnumerateBody("combine-two", std::move(*extra)));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, 200);
  });
  ASSERT_TRUE(WaitFor([&] {
    return (*tenant)->session()->scheduler().stats().inflight == 1;
  }));
  auto shed = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two"),
                    {{"X-Hypre-Deadline-Ms", "50"}});
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 429) << shed->body;
  slow.join();
}

// --- Concurrency (the TSan job leans on this) ------------------------------

TEST_F(HttpServerTest, ConcurrentMutateAndReadMixStaysConsistent) {
  StartServer();
  // Warm both the tenant and its engine before racing.
  auto warm = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two"));
  ASSERT_EQ(warm->status, 200);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_ok{0}, writes_ok{0}, failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const char* algorithm = t == 0 ? "combine-two" : (t == 1 ? "ta" : "peps");
      Json extra = Json::Object();
      if (t != 0) extra.Set("k", Json::Int(5));
      const std::string body = EnumerateBody(algorithm, std::move(extra));
      while (!stop.load(std::memory_order_relaxed)) {
        auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate", body);
        if (reply.ok() && reply->status == 200) {
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread writer([&] {
    int64_t pid = 910000;
    while (!stop.load(std::memory_order_relaxed)) {
      Json row = Json::Array();
      row.Append(Json::Int(pid));
      row.Append(Json::Str("racer"));
      row.Append(Json::Int(2009));
      row.Append(Json::Str("SIGMOD"));
      Json op = Json::Object();
      op.Set("op", Json::Str("append"));
      op.Set("table", Json::Str("dblp"));
      op.Set("row", std::move(row));
      Json ops = Json::Array();
      ops.Append(std::move(op));
      Json body = Json::Object();
      body.Set("ops", std::move(ops));
      auto reply = Fetch(port(), "POST", "/v1/alpha/mutate", body.Dump());
      if (reply.ok() && reply->status == 200) {
        writes_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++pid;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)Fetch(port(), "GET", "/v1/alpha/stats", "");
      (void)Fetch(port(), "GET", "/metrics", "");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true);
  for (auto& thread : readers) thread.join();
  writer.join();
  scraper.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_GT(writes_ok.load(), 0u);
}

// --- Keep-alive, endpoints, shutdown ---------------------------------------

TEST_F(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", port());
  ASSERT_TRUE(fd.ok());
  const std::string body = EnumerateBody("combine-two");
  std::string first_body;
  for (int i = 0; i < 5; ++i) {
    auto reply = SendHttpRequest(*fd, "POST", "/v1/alpha/enumerate", body);
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    ASSERT_EQ(reply->status, 200);
    if (i == 0) {
      first_body = reply->body;
    } else {
      EXPECT_EQ(StripStats(reply->body), StripStats(first_body));
    }
  }
  // Connection: close is honored.
  auto last = SendHttpRequest(*fd, "GET", "/healthz", "",
                              {{"Connection", "close"}});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->status, 200);
  char byte;
  EXPECT_EQ(::recv(*fd, &byte, 1, 0), 0);  // server closed
  ::close(*fd);
}

TEST_F(HttpServerTest, HealthzAndMetricsEndpoints) {
  StartServer();
  auto health = Fetch(port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health->status, 200);
  auto doc = Json::Parse(health->body, "healthz");
  ASSERT_TRUE(doc.ok()) << health->body;
  EXPECT_EQ(doc->GetString("status", "t").value(), "ok");
  auto names = doc->GetArray("tenants", "t");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ((*names)->size(), 2u);

  // Touch a tenant so server metrics have been registered and bumped.
  auto warm = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two"));
  ASSERT_EQ(warm->status, 200);
  auto metrics = Fetch(port(), "GET", "/metrics", "");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  const std::string* type = FindHeader(*metrics, "content-type");
  ASSERT_NE(type, nullptr);
  EXPECT_NE(type->find("text/plain"), std::string::npos);
#if HYPRE_TELEMETRY_ENABLED
  EXPECT_NE(metrics->body.find("hypre_server_requests_total"),
            std::string::npos)
      << metrics->body.substr(0, 500);
  EXPECT_NE(metrics->body.find("# TYPE"), std::string::npos);
#else
  EXPECT_NE(metrics->body.find("telemetry compiled out"), std::string::npos);
#endif
}

TEST_F(HttpServerTest, GracefulStopFinishesInFlightRequests) {
  StartServer();
  auto warm = Fetch(port(), "POST", "/v1/alpha/enumerate",
                    EnumerateBody("combine-two"));
  ASSERT_EQ(warm->status, 200);

  // Hammer the server from several threads, then Stop() mid-load. Every
  // response that arrives must be complete and valid; requests cut off by
  // the closing listener may fail at the transport, never with a torn
  // response body.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0}, torn{0};
  std::vector<std::thread> clients;
  const std::string body = EnumerateBody("combine-two");
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto reply = Fetch(port(), "POST", "/v1/alpha/enumerate", body);
        if (!reply.ok()) continue;  // connection refused/cut: fine
        if (reply->status == 200 &&
            Json::Parse(reply->body, "t").ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server_->Stop();  // drains in-flight, then joins workers
  stop.store(true);
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_FALSE(server_->running());
  // The tenant layer survives the transport stopping and shuts down clean.
  auto shutdown = tenants_->ShutdownAll();
  EXPECT_TRUE(shutdown.ok()) << shutdown.ToString();
}

}  // namespace
}  // namespace server
}  // namespace hypre
