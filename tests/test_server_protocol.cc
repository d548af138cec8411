// Wire-protocol tests: frame encode/decode round-trips, truncated and
// oversized frame rejection, request/response grammar, and an in-process
// server end-to-end pass including the BUSY backpressure path.
#include "serve/protocol.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/server.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using namespace cortex::serve;
using cortex::testing::MiniWorld;

// ---------------------------------------------------------------------------
// Framing

TEST(FrameTest, RoundTripSingleFrame) {
  std::string wire;
  const std::string payload_in = "LOOKUP\thello world";
  AppendFrame(payload_in, wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload_in.size());

  FrameDecoder decoder;
  decoder.Feed(wire);
  std::string payload;
  ASSERT_EQ(decoder.Next(&payload), FrameDecoder::Status::kFrame);
  EXPECT_EQ(payload, "LOOKUP\thello world");
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(decoder.MidFrame());
}

TEST(FrameTest, ByteAtATimeFeedingReassembles) {
  std::string wire;
  AppendFrame("PING", wire);
  AppendFrame("STATS", wire);

  FrameDecoder decoder;
  std::string payload;
  std::vector<std::string> frames;
  for (const char c : wire) {
    decoder.Feed(std::string_view(&c, 1));
    while (decoder.Next(&payload) == FrameDecoder::Status::kFrame) {
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "PING");
  EXPECT_EQ(frames[1], "STATS");
}

TEST(FrameTest, TruncatedFrameIsDetectable) {
  std::string wire;
  AppendFrame("LOOKUP\tsome query", wire);
  FrameDecoder decoder;
  decoder.Feed(std::string_view(wire).substr(0, wire.size() - 3));
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Status::kNeedMore);
  // At connection EOF this state means the peer truncated mid-frame.
  EXPECT_TRUE(decoder.MidFrame());
}

TEST(FrameTest, OversizedFrameIsRejectedAndSticky) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  std::string wire;
  AppendFrame(std::string(17, 'x'), wire);
  decoder.Feed(wire);
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Status::kOversized);
  // Poisoned: even a well-formed follow-up frame is not decoded.
  std::string good;
  AppendFrame("PING", good);
  decoder.Feed(good);
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Status::kOversized);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  std::string wire;
  AppendFrame("", wire);
  FrameDecoder decoder;
  decoder.Feed(wire);
  std::string payload = "sentinel";
  ASSERT_EQ(decoder.Next(&payload), FrameDecoder::Status::kFrame);
  EXPECT_TRUE(payload.empty());
}

// ---------------------------------------------------------------------------
// Request grammar

TEST(RequestGrammarTest, LookupRoundTrip) {
  Request request;
  request.type = RequestType::kLookup;
  request.query = "what is the height of everest";
  const auto parsed = ParseRequest(EncodePayload(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, RequestType::kLookup);
  EXPECT_EQ(parsed->query, request.query);
}

TEST(RequestGrammarTest, InsertRoundTripPreservesTabsInValue) {
  Request request;
  request.type = RequestType::kInsert;
  request.staticity = 7.25;
  request.key = "everest height";
  request.value = "8849 m\tfirst measured 1856";  // value may contain tabs
  const auto parsed = ParseRequest(EncodePayload(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, RequestType::kInsert);
  EXPECT_DOUBLE_EQ(parsed->staticity, 7.25);
  EXPECT_EQ(parsed->key, request.key);
  EXPECT_EQ(parsed->value, request.value);
}

TEST(RequestGrammarTest, PingAndStatsRoundTrip) {
  for (const RequestType type : {RequestType::kPing, RequestType::kStats}) {
    Request request;
    request.type = type;
    const auto parsed = ParseRequest(EncodePayload(request));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, type);
  }
}

TEST(RequestGrammarTest, MalformedRequestsAreRejected) {
  std::string error;
  EXPECT_FALSE(ParseRequest("", &error).has_value());
  EXPECT_FALSE(ParseRequest("NOPE\tx", &error).has_value());
  EXPECT_FALSE(ParseRequest("LOOKUP", &error).has_value());
  EXPECT_FALSE(ParseRequest("LOOKUP\t", &error).has_value());
  EXPECT_FALSE(ParseRequest("INSERT\tnotanumber\tk\tv", &error).has_value());
  EXPECT_FALSE(ParseRequest("INSERT\t5", &error).has_value());
  EXPECT_FALSE(ParseRequest("INSERT\t5\tkey", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(RequestGrammarTest, TenantLookupRoundTrip) {
  Request request;
  request.type = RequestType::kTenantLookup;
  request.tenant = "acme";
  request.query = "what is the height of everest";
  const auto parsed = ParseRequest(EncodePayload(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, RequestType::kTenantLookup);
  EXPECT_EQ(parsed->tenant, "acme");
  EXPECT_EQ(parsed->query, request.query);
}

TEST(RequestGrammarTest, TenantInsertRoundTrip) {
  Request request;
  request.type = RequestType::kTenantInsert;
  request.tenant = "acme";
  request.shareable = false;
  request.staticity = 7.25;
  request.key = "everest height";
  request.value = "8849 m\tfirst measured 1856";  // value may contain tabs
  const auto parsed = ParseRequest(EncodePayload(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, RequestType::kTenantInsert);
  EXPECT_EQ(parsed->tenant, "acme");
  EXPECT_FALSE(parsed->shareable);
  EXPECT_DOUBLE_EQ(parsed->staticity, 7.25);
  EXPECT_EQ(parsed->key, request.key);
  EXPECT_EQ(parsed->value, request.value);

  request.shareable = true;
  const auto shared = ParseRequest(EncodePayload(request));
  ASSERT_TRUE(shared.has_value());
  EXPECT_TRUE(shared->shareable);
}

TEST(RequestGrammarTest, MalformedTenantRequestsAreRejected) {
  std::string error;
  // Missing / invalid tenant ids (empty, reserved bytes, oversized).
  EXPECT_FALSE(ParseRequest("TLOOKUP", &error).has_value());
  EXPECT_FALSE(ParseRequest("TLOOKUP\t\tquery", &error).has_value());
  EXPECT_FALSE(ParseRequest("TLOOKUP\ta|b\tquery", &error).has_value());
  EXPECT_FALSE(ParseRequest("TLOOKUP\ta=b\tquery", &error).has_value());
  EXPECT_FALSE(
      ParseRequest("TLOOKUP\t" + std::string(65, 'a') + "\tquery", &error)
          .has_value());
  // Missing query / fields.
  EXPECT_FALSE(ParseRequest("TLOOKUP\tacme", &error).has_value());
  EXPECT_FALSE(ParseRequest("TLOOKUP\tacme\t", &error).has_value());
  // Bad shareable literal and truncated TINSERT forms.
  EXPECT_FALSE(
      ParseRequest("TINSERT\tacme\tyes\t5\tk\tv", &error).has_value());
  EXPECT_FALSE(ParseRequest("TINSERT\tacme\t1\tNaNish\tk\tv", &error)
                   .has_value());
  EXPECT_FALSE(ParseRequest("TINSERT\tacme\t1\t5", &error).has_value());
  EXPECT_FALSE(ParseRequest("TINSERT\tacme\t1\t5\tkey", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Response grammar

TEST(ResponseGrammarTest, HitRoundTrip) {
  Response response;
  response.type = ResponseType::kHit;
  response.similarity = 0.875;
  response.judger_score = 0.96875;
  response.matched_key = "everest height";
  response.value = "8849 m";
  const auto parsed = ParseResponse(EncodePayload(response));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, ResponseType::kHit);
  EXPECT_DOUBLE_EQ(parsed->similarity, 0.875);
  EXPECT_DOUBLE_EQ(parsed->judger_score, 0.96875);
  EXPECT_EQ(parsed->matched_key, "everest height");
  EXPECT_EQ(parsed->value, "8849 m");
}

TEST(ResponseGrammarTest, SimpleKindsRoundTrip) {
  for (const ResponseType type :
       {ResponseType::kMiss, ResponseType::kReject, ResponseType::kPong,
        ResponseType::kBusy}) {
    Response response;
    response.type = type;
    const auto parsed = ParseResponse(EncodePayload(response));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, type);
  }
  Response ok;
  ok.type = ResponseType::kOk;
  ok.id = 12345678901ULL;
  const auto parsed = ParseResponse(EncodePayload(ok));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, 12345678901ULL);
}

TEST(ResponseGrammarTest, StatsRoundTrip) {
  Response response;
  response.type = ResponseType::kStats;
  response.stats = {{"lookups", "10"}, {"hit_rate", "0.5"}};
  const auto parsed = ParseResponse(EncodePayload(response));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->stats.size(), 2u);
  EXPECT_EQ(parsed->stats[0].first, "lookups");
  EXPECT_EQ(parsed->stats[1].second, "0.5");
}

TEST(ResponseGrammarTest, MalformedResponsesAreRejected) {
  EXPECT_FALSE(ParseResponse("").has_value());
  EXPECT_FALSE(ParseResponse("WHAT").has_value());
  EXPECT_FALSE(ParseResponse("OK\tnotanumber").has_value());
  EXPECT_FALSE(ParseResponse("HIT\t0.5").has_value());
  EXPECT_FALSE(ParseResponse("STATS\tnoequals").has_value());
}

// ---------------------------------------------------------------------------
// End-to-end over a live server (Unix-domain socket)

class ServerEndToEndTest : public ::testing::Test {
 protected:
  ServerEndToEndTest() : world_(48, /*seed=*/47) {}

  std::string SocketPath(const char* tag) {
    return ::testing::TempDir() + "cortexd-test-" + tag + "-" +
           std::to_string(::getpid()) + ".sock";
  }

  std::unique_ptr<serve::ConcurrentShardedEngine> MakeEngine() {
    serve::ConcurrentEngineOptions opts;
    opts.num_shards = 4;
    opts.cache.capacity_tokens = 1e6;
    opts.housekeeping_interval_sec = 0.0;
    return std::make_unique<serve::ConcurrentShardedEngine>(
        &world_.embedder, world_.judger.get(), opts);
  }

  MiniWorld world_;
};

TEST_F(ServerEndToEndTest, LookupInsertStatsOverTheWire) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("e2e");
  opts.num_workers = 2;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;

  Request ping;
  ping.type = RequestType::kPing;
  auto response = client.Call(ping, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kPong);

  // Cold lookup misses; insert; paraphrase lookup hits.
  Request lookup;
  lookup.type = RequestType::kLookup;
  lookup.query = world_.query(0, 0);
  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);

  Request insert;
  insert.type = RequestType::kInsert;
  insert.key = world_.query(0, 0);
  insert.value = world_.answer(0);
  insert.staticity = world_.topic(0).staticity;
  response = client.Call(insert, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kOk);
  EXPECT_GT(response->id, 0u);

  lookup.query = world_.query(0, 2);
  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kHit);
  EXPECT_EQ(response->value, world_.answer(0));
  EXPECT_EQ(response->matched_key, world_.query(0, 0));

  Request stats;
  stats.type = RequestType::kStats;
  response = client.Call(stats, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kStats);
  bool saw_lookups = false;
  for (const auto& [key, value] : response->stats) {
    if (key == "lookups") {
      saw_lookups = true;
      EXPECT_EQ(value, "2");
    }
  }
  EXPECT_TRUE(saw_lookups);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerEndToEndTest, MalformedFrameGetsErrNotDisconnect) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("err");
  opts.num_workers = 1;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
  const auto raw = client.CallRaw("GARBAGE\tframe", &error);
  ASSERT_TRUE(raw.has_value()) << error;
  const auto parsed = ParseResponse(*raw);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, ResponseType::kError);

  // The connection survives a parse error; a valid request still works.
  Request ping;
  ping.type = RequestType::kPing;
  const auto response = client.Call(ping, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kPong);
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST_F(ServerEndToEndTest, RateLimitOverloadAnswersBusy) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("busy");
  opts.num_workers = 1;
  // One token, refilled at a glacial rate: the second lookup must be BUSY.
  opts.max_requests_per_sec = 1e-6;
  opts.rate_burst = 1.0;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;

  Request lookup;
  lookup.type = RequestType::kLookup;
  lookup.query = world_.query(1, 0);
  auto response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);

  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kBusy);

  // PING is never rate limited — the control plane stays responsive.
  Request ping;
  ping.type = RequestType::kPing;
  response = client.Call(ping, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kPong);
  EXPECT_GE(server.stats().requests_busy, 1u);
}

TEST_F(ServerEndToEndTest, TenantVerbsIsolateNamespacesOverTheWire) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("tenant");
  opts.num_workers = 2;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;

  Request insert;
  insert.type = RequestType::kTenantInsert;
  insert.tenant = "acme";
  insert.key = world_.query(0, 0);
  insert.value = world_.answer(0);
  insert.staticity = world_.topic(0).staticity;
  auto response = client.Call(insert, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kOk);

  // The owning tenant hits under a paraphrase...
  Request lookup;
  lookup.type = RequestType::kTenantLookup;
  lookup.tenant = "acme";
  lookup.query = world_.query(0, 1);
  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kHit);
  EXPECT_EQ(response->value, world_.answer(0));

  // ...another tenant and the untenanted verb both miss.
  lookup.tenant = "zeta";
  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);

  Request untenanted;
  untenanted.type = RequestType::kLookup;
  untenanted.query = world_.query(0, 2);
  response = client.Call(untenanted, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);
}

TEST_F(ServerEndToEndTest, PerTenantQuotaAnswersBusyWithoutStarvingOthers) {
  serve::ConcurrentEngineOptions eopts;
  eopts.num_shards = 4;
  eopts.cache.capacity_tokens = 1e6;
  eopts.housekeeping_interval_sec = 0.0;
  // One token, refilled at a glacial rate, for every tenant.
  eopts.tenants.default_quota.rate_per_sec = 1e-6;
  eopts.tenants.default_quota.rate_burst = 1.0;
  auto engine = std::make_unique<serve::ConcurrentShardedEngine>(
      &world_.embedder, world_.judger.get(), eopts);
  ServerOptions opts;
  opts.unix_path = SocketPath("tenant-busy");
  opts.num_workers = 1;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;

  Request lookup;
  lookup.type = RequestType::kTenantLookup;
  lookup.tenant = "hot";
  lookup.query = world_.query(1, 0);
  auto response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);

  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kBusy);

  // The hot tenant's exhausted bucket does not throttle anyone else:
  // another tenant and the untenanted verb still get through.
  lookup.tenant = "cold";
  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);

  Request untenanted;
  untenanted.type = RequestType::kLookup;
  untenanted.query = world_.query(1, 1);
  response = client.Call(untenanted, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);
  EXPECT_GE(server.stats().requests_busy, 1u);
}

TEST_F(ServerEndToEndTest, PipelineOverflowAnswersBusyInOrder) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("pipe");
  opts.num_workers = 1;
  opts.max_pipeline = 2;  // tiny per-connection request queue
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Write 6 pipelined PINGs in ONE syscall so the server decodes them all
  // in one read batch: 2 fit the pipeline bound, 4 overflow.  Responses
  // must come back in request order: PONG PONG BUSY BUSY BUSY BUSY.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(opts.unix_path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, opts.unix_path.c_str(),
              opts.unix_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);

  constexpr std::size_t kBurst = 6;
  std::string burst;
  for (std::size_t i = 0; i < kBurst; ++i) AppendFrame("PING", burst);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  FrameDecoder decoder;
  std::vector<ResponseType> kinds;
  char buf[4096];
  while (kinds.size() < kBurst) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "connection closed before all responses arrived";
    decoder.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
    std::string payload;
    while (decoder.Next(&payload) == FrameDecoder::Status::kFrame) {
      const auto response = ParseResponse(payload);
      ASSERT_TRUE(response.has_value());
      kinds.push_back(response->type);
    }
  }
  ::close(fd);

  ASSERT_EQ(kinds.size(), kBurst);
  EXPECT_EQ(kinds[0], ResponseType::kPong);
  EXPECT_EQ(kinds[1], ResponseType::kPong);
  for (std::size_t i = 2; i < kBurst; ++i) {
    EXPECT_EQ(kinds[i], ResponseType::kBusy) << "frame " << i;
  }
  EXPECT_EQ(server.stats().requests_busy, 4u);
}

// Concurrent LOOKUP and TLOOKUP clients are served on their connection
// workers.  The legacy batching options are set and must change nothing:
// every wire answer equals what a sequential Lookup on an identically
// seeded engine returns, and STATS carries no cortex_pipeline_* key.
TEST_F(ServerEndToEndTest, ConcurrentWireLookupsMatchSequentialEngine) {
  auto engine = MakeEngine();
  auto reference = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("batch");
  opts.num_workers = 4;
  opts.max_pipeline_batch = 4;  // ignored
  opts.batch_window_us = 2000;
  opts.pipeline_threads = 2;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Topics 0-3 go to the shared pool and topic 4 is acme-private; topic 5
  // is never inserted, so the lookups below hit, miss and see tenants.
  constexpr std::size_t kTopics = 6;
  {
    BlockingClient seeder;
    ASSERT_TRUE(seeder.ConnectUnix(opts.unix_path, &error)) << error;
    for (std::size_t t = 0; t < 5; ++t) {
      Request insert;
      insert.type = t == 4 ? RequestType::kTenantInsert : RequestType::kInsert;
      insert.tenant = t == 4 ? "acme" : "";
      insert.key = world_.query(t, 0);
      insert.value = world_.answer(t);
      insert.staticity = world_.topic(t).staticity;
      const auto response = seeder.Call(insert, &error);
      ASSERT_TRUE(response.has_value()) << error;
      ASSERT_EQ(response->type, ResponseType::kOk);

      InsertRequest copy;
      copy.key = insert.key;
      copy.value = insert.value;
      copy.staticity = insert.staticity;
      copy.initial_frequency = 1;
      copy.tenant = insert.tenant;
      copy.shareable = insert.shareable;
      ASSERT_TRUE(reference->Insert(std::move(copy)).has_value());
    }
  }

  // Lookup i of every client: topic, paraphrase and tenant ("" = LOOKUP).
  const auto request_for = [&](std::size_t c, std::size_t i) {
    Request lookup;
    const std::size_t topic = (c + i) % kTopics;
    lookup.query = world_.query(topic, 1 + (i % 2));
    lookup.tenant = (c + i / 2) % 2 == 1 ? "acme" : "";
    lookup.type = lookup.tenant.empty() ? RequestType::kLookup
                                        : RequestType::kTenantLookup;
    return lookup;
  };
  // What a sequential engine Lookup answers, encoded as the wire frame.
  const auto sequential_answer = [&](const Request& lookup) {
    const auto hit =
        reference->Lookup(lookup.query, nullptr, lookup.tenant);
    Response r;
    r.type = hit ? ResponseType::kHit : ResponseType::kMiss;
    if (hit) {
      r.matched_key = hit->matched_key;
      r.value = hit->value;
      r.similarity = hit->similarity;
      r.judger_score = hit->judger_score;
    }
    return EncodePayload(r);
  };

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 12;
  std::vector<std::vector<std::string>> got(
      kClients, std::vector<std::string>(kPerClient));
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string err;
      BlockingClient client;
      if (!client.ConnectUnix(opts.unix_path, &err)) {
        ++failures;
        return;
      }
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto response = client.Call(request_for(c, i), &err);
        if (!response.has_value()) {
          ++failures;
          return;
        }
        got[c][i] = EncodePayload(*response);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::size_t hits = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      const std::string want = sequential_answer(request_for(c, i));
      EXPECT_EQ(got[c][i], want) << "client " << c << " lookup " << i;
      if (want.rfind("HIT", 0) == 0) ++hits;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, kClients * kPerClient);

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
  Request stats;
  stats.type = RequestType::kStats;
  const auto response = client.Call(stats, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kStats);
  double lookups = 0.0, rows_scanned = 0.0;
  for (const auto& [key, value] : response->stats) {
    EXPECT_NE(key.rfind("cortex_pipeline_", 0), 0u) << key;
    if (key == "cortex_engine_lookups") lookups = std::stod(value);
    if (key == "cortex_engine_rows_scanned") rows_scanned = std::stod(value);
  }
  EXPECT_EQ(lookups, kClients * kPerClient);
  EXPECT_GT(rows_scanned, 0.0);

  server.Stop();
}

TEST_F(ServerEndToEndTest, TruncatedFrameAtEofCountsAsProtocolError) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("trunc");
  opts.num_workers = 1;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opts.unix_path.c_str(),
              opts.unix_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);

  // Send a frame cut off mid-payload, then hang up.
  std::string wire;
  AppendFrame("LOOKUP\tsome long query that never finishes", wire);
  wire.resize(wire.size() / 2);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ::close(fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().protocol_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST_F(ServerEndToEndTest, OversizedFrameDisconnectsWithErr) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("big");
  opts.num_workers = 1;
  opts.max_frame_bytes = 64;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
  const auto raw = client.CallRaw("LOOKUP\t" + std::string(100, 'q'), &error);
  ASSERT_TRUE(raw.has_value()) << error;
  const auto parsed = ParseResponse(*raw);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, ResponseType::kError);
  EXPECT_GE(server.stats().protocol_errors, 1u);

  // The stream is unrecoverable after a bad length prefix: the server hangs
  // up, so the next call fails at the transport layer.
  Request ping;
  ping.type = RequestType::kPing;
  EXPECT_FALSE(client.Call(ping, &error).has_value());
}

TEST_F(ServerEndToEndTest, StopWakesIdleAndJustReleasedWorkers) {
  // Stop() must wake every worker parked in its queue wait.  Publishing
  // the stop flag without queue_mu_ let it land between a worker's
  // predicate check and its wait, losing the notify and hanging the join.
  // Cycle servers whose workers are idle, or were just handed back to the
  // wait by a client disconnect, a few hundred times under a deadline.
  auto engine = MakeEngine();
  constexpr int kThreads = 4;
  constexpr int kCyclesPerThread = 75;
  std::atomic<int> cycles{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const std::string path = SocketPath(("stop" + std::to_string(t)).c_str());
      for (int i = 0; i < kCyclesPerThread; ++i) {
        ServerOptions opts;
        opts.unix_path = path;
        opts.num_workers = 3;
        CortexServer server(engine.get(), opts);
        std::string error;
        if (!server.Start(&error)) {
          ADD_FAILURE() << error;
          return;
        }
        if (i % 2 == 1) {
          // One worker serves a request, sees the hang-up, and heads back
          // into the queue wait just as Stop() runs.
          BlockingClient client;
          if (client.ConnectUnix(path, &error)) {
            Request ping;
            ping.type = RequestType::kPing;
            EXPECT_TRUE(client.Call(ping, &error).has_value()) << error;
          }
        }
        server.Stop();
        cycles.fetch_add(1);
      }
    });
  }
  // A lost wake-up hangs Stop() for good, so fail loudly at the deadline
  // instead of leaving the suite to time out.
  constexpr int kTotal = kThreads * kCyclesPerThread;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (cycles.load() < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (cycles.load() < kTotal) {
    std::fprintf(stderr, "Stop() hung: %d of %d start/stop cycles done\n",
                 cycles.load(), kTotal);
    std::abort();
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(cycles.load(), kTotal);
}

}  // namespace
}  // namespace cortex
