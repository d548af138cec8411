// Cluster-tier integration tests: an in-process 3-node cortexd cluster
// behind a ClusterRouter, all over Unix-domain sockets.  Covers ownership
// routing, semantic (anchor) placement stability, replica failover on a
// dead node, the live-migration handoff (zero dropped requests, zero false
// misses under concurrent traffic), migration abort, the HELLO handshake,
// and metric visibility via STATS + Prometheus rendering.
#include "cluster/router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/concurrent_engine.h"
#include "serve/server.h"
#include "tenant/tenant.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;
using serve::BlockingClient;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ResponseType;

class ClusterTest : public ::testing::Test {
 protected:
  struct Node {
    std::string name;
    std::string socket;
    std::unique_ptr<serve::ConcurrentShardedEngine> engine;
    std::unique_ptr<serve::CortexServer> server;
  };

  ClusterTest() : world_(48, /*seed=*/47) {}

  // Each node's engine clock counts from its own origin, as a real node's
  // counts from its start.  Source nodes read about kSourceClock seconds,
  // skewed from one another; migration tests pick the joiner's reading.
  static constexpr double kSourceClock = 1000.0;

  std::function<double()> ClockAt(double offset) const {
    return [origin = origin_, offset] {
      return offset + std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - origin)
                          .count();
    };
  }

  std::string SocketPath(const std::string& tag) {
    return ::testing::TempDir() + "cluster-" + tag + "-" +
           std::to_string(::getpid()) + ".sock";
  }

  // cortexd serves thread-per-connection, and the router's pools hold
  // persistent connections: size each node's worker pool to cover every
  // router worker plus the migration stream plus direct test probes
  // (DESIGN.md §10 sizing rule).
  Node* StartNode(const std::string& name, double clock_offset) {
    auto node = std::make_unique<Node>();
    node->name = name;
    node->socket = SocketPath(name);
    serve::ConcurrentEngineOptions eopts;
    eopts.num_shards = 2;
    eopts.cache.capacity_tokens = 1e6;
    eopts.housekeeping_interval_sec = 0.0;
    eopts.clock = ClockAt(clock_offset);
    node->engine = std::make_unique<serve::ConcurrentShardedEngine>(
        &world_.embedder, world_.judger.get(), eopts);
    serve::ServerOptions sopts;
    sopts.unix_path = node->socket;
    sopts.num_workers = 8;
    sopts.max_frame_bytes = std::size_t{64} << 20;
    node->server = std::make_unique<serve::CortexServer>(node->engine.get(),
                                                         sopts);
    std::string error;
    if (!node->server->Start(&error)) {
      ADD_FAILURE() << "node " << name << " failed to start: " << error;
      return nullptr;
    }
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
  }

  Node* FindNode(const std::string& name) {
    for (auto& node : nodes_) {
      if (node->name == name) return node.get();
    }
    return nullptr;
  }

  // A 3-node router on a Unix socket; nodes node0..node2 started here.
  std::unique_ptr<cluster::ClusterRouter> StartCluster(
      std::size_t replication) {
    cluster::RouterOptions ropts;
    ropts.unix_path = SocketPath("router");
    ropts.num_workers = 4;
    ropts.ring.replication = replication;
    ropts.embedder = &world_.embedder;
    auto router = std::make_unique<cluster::ClusterRouter>(ropts);
    std::string error;
    for (int i = 0; i < 3; ++i) {
      Node* node =
          StartNode("node" + std::to_string(i), kSourceClock + 150.0 * i);
      if (node == nullptr) return nullptr;
      if (!router->AddNode(node->name, "unix:" + node->socket, &error)) {
        ADD_FAILURE() << error;
        return nullptr;
      }
    }
    if (!router->Start(&error)) {
      ADD_FAILURE() << "router failed to start: " << error;
      return nullptr;
    }
    router_socket_ = ropts.unix_path;
    return router;
  }

  bool Connect(BlockingClient& client) {
    std::string error;
    const bool ok = client.ConnectUnix(router_socket_, &error);
    if (!ok) ADD_FAILURE() << "router connect failed: " << error;
    return ok;
  }

  Request LookupFor(std::size_t topic, std::size_t paraphrase = 0) {
    Request req;
    req.type = RequestType::kLookup;
    req.query = world_.query(topic, paraphrase);
    return req;
  }

  Request InsertFor(std::size_t topic, std::size_t paraphrase = 0) {
    Request req;
    req.type = RequestType::kInsert;
    req.key = world_.query(topic, paraphrase);
    req.value = world_.answer(topic);
    req.staticity = world_.topic(topic).staticity;
    return req;
  }

  // Inserts paraphrase 0 of topics [0, n) through the router.
  void WarmThroughRouter(BlockingClient& client, std::size_t n) {
    std::string error;
    for (std::size_t topic = 0; topic < n; ++topic) {
      const auto response = client.Call(InsertFor(topic), &error);
      ASSERT_TRUE(response.has_value()) << error;
      ASSERT_EQ(response->type, ResponseType::kOk) << "topic " << topic;
    }
  }

  std::uint64_t Counter(cluster::ClusterRouter& router, const char* name) {
    return router.registry()->GetCounter(name)->Value();
  }

  // Exact-key lookups over the whole warmed universe from three client
  // threads while `joiner_clock` joins live, then checks that no request
  // was dropped or falsely missed and that the joiner owns its share.
  void RunLiveMigration(double joiner_clock);

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  MiniWorld world_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::string router_socket_;
};

TEST_F(ClusterTest, RoutingDeliversEveryKeyToItsOwningNode) {
  auto router = StartCluster(/*replication=*/1);
  ASSERT_NE(router, nullptr);
  BlockingClient client;
  ASSERT_TRUE(Connect(client));
  WarmThroughRouter(client, world_.universe->size());

  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    const std::string& key = world_.query(topic, 0);
    const auto owners = router->OwnersFor(key);
    ASSERT_EQ(owners.size(), 1u);
    for (const auto& node : nodes_) {
      EXPECT_EQ(node->engine->ContainsKey(key), node->name == owners[0])
          << "topic " << topic << " key should live on " << owners[0]
          << " only, checked " << node->name;
    }
  }
  // Every node owns a share of a 48-topic universe.
  std::set<std::string> used;
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    used.insert(router->OwnersFor(world_.query(topic, 0)).front());
  }
  EXPECT_EQ(used.size(), 3u);
  // And lookups through the router find what inserts placed.
  std::string error;
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    const auto response = client.Call(LookupFor(topic), &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->type, ResponseType::kHit) << "topic " << topic;
  }
}

TEST_F(ClusterTest, SemanticPlacementKeepsParaphrasesTogether) {
  auto router = StartCluster(/*replication=*/1);
  ASSERT_NE(router, nullptr);
  int stable = 0;
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    std::set<std::string> keys;
    for (const auto& q : world_.topic(topic).paraphrases) {
      keys.insert(router->PlacementKey(q));
    }
    if (keys.size() == 1) ++stable;
  }
  // IDF anchoring keeps the overwhelming majority of topics owner-stable
  // (same bound as the sharded-cache routing test).
  EXPECT_GE(stable, static_cast<int>(world_.universe->size() * 9 / 10));
  // Tenant prefixes override the anchor entirely.
  EXPECT_EQ(router->PlacementKey("tenant:acme|what is the capital"),
            router->PlacementKey("tenant:acme|how tall is everest"));
  EXPECT_NE(router->PlacementKey("tenant:acme|what is the capital"),
            router->PlacementKey("tenant:zeta|what is the capital"));
}

TEST_F(ClusterTest, TenantNamespaceCoLocatesOnOneOwnerSet) {
  auto router = StartCluster(/*replication=*/1);
  ASSERT_NE(router, nullptr);
  BlockingClient client;
  ASSERT_TRUE(Connect(client));

  // TINSERT topics 0-7 for one tenant: wildly different queries, but the
  // tenant:<id> ring prefix must pin every one to the same owner set.
  std::string error;
  for (std::size_t topic = 0; topic < 8; ++topic) {
    Request req = InsertFor(topic);
    req.type = RequestType::kTenantInsert;
    req.tenant = "acme";
    const auto response = client.Call(req, &error);
    ASSERT_TRUE(response.has_value()) << error;
    ASSERT_EQ(response->type, ResponseType::kOk) << "topic " << topic;
  }

  const auto owners = router->OwnersFor(tenant::PlacementKeyFor("acme"));
  ASSERT_EQ(owners.size(), 1u);
  for (std::size_t topic = 0; topic < 8; ++topic) {
    const std::string& key = world_.query(topic, 0);
    for (const auto& node : nodes_) {
      EXPECT_EQ(node->engine->ContainsKey(key, "acme"),
                node->name == owners[0])
          << "topic " << topic << " should live on " << owners[0]
          << " only, checked " << node->name;
    }
  }

  // TLOOKUP through the router finds them for the owning tenant...
  for (std::size_t topic = 0; topic < 8; ++topic) {
    Request req = LookupFor(topic, /*paraphrase=*/1);
    req.type = RequestType::kTenantLookup;
    req.tenant = "acme";
    const auto response = client.Call(req, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->type, ResponseType::kHit) << "topic " << topic;
  }
  // ...and another tenant routes to its own (possibly different) owner
  // set and sees none of acme's entries.
  for (std::size_t topic = 0; topic < 8; ++topic) {
    Request req = LookupFor(topic, /*paraphrase=*/2);
    req.type = RequestType::kTenantLookup;
    req.tenant = "zeta";
    const auto response = client.Call(req, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->type, ResponseType::kMiss) << "topic " << topic;
  }
}

TEST_F(ClusterTest, LookupFailsOverToReplicaWhenPrimaryDies) {
  auto router = StartCluster(/*replication=*/2);
  ASSERT_NE(router, nullptr);
  BlockingClient client;
  ASSERT_TRUE(Connect(client));
  constexpr std::size_t kTopics = 12;
  WarmThroughRouter(client, kTopics);

  // Both owners hold every replicated insert.
  for (std::size_t topic = 0; topic < kTopics; ++topic) {
    const auto owners = router->OwnersFor(world_.query(topic, 0));
    ASSERT_EQ(owners.size(), 2u);
    for (const auto& name : owners) {
      EXPECT_TRUE(FindNode(name)->engine->ContainsKey(world_.query(topic, 0)))
          << "replica " << name << " missing topic " << topic;
    }
  }

  // Kill topic 0's primary; the router must serve the HIT from the replica.
  const auto owners = router->OwnersFor(world_.query(0, 0));
  FindNode(owners[0])->server->Stop();

  std::string error;
  const auto response = client.Call(LookupFor(0), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kHit);
  EXPECT_GE(Counter(*router, "cortex_router_failovers"), 1u);

  // Every key the dead node owned (as primary or replica) stays servable.
  for (std::size_t topic = 0; topic < kTopics; ++topic) {
    const auto r = client.Call(LookupFor(topic), &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->type, ResponseType::kHit) << "topic " << topic;
  }
}

void ClusterTest::RunLiveMigration(double joiner_clock) {
  auto router = StartCluster(/*replication=*/1);
  ASSERT_NE(router, nullptr);
  BlockingClient client;
  ASSERT_TRUE(Connect(client));
  WarmThroughRouter(client, world_.universe->size());
  const auto v_before = router->ring_version();

  // Concurrent traffic: every thread loops exact-key lookups over the whole
  // warmed universe.  Exact-key lookups are deterministic hits, so ANY miss
  // or transport error during the handoff is a correctness failure.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> traffic_hits{0}, traffic_wrong{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 3; ++t) {
    traffic.emplace_back([&] {
      BlockingClient c;
      std::string err;
      if (!c.ConnectUnix(router_socket_, &err)) {
        ++traffic_wrong;
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t topic = 0; topic < world_.universe->size();
             ++topic) {
          const auto r = c.Call(LookupFor(topic), &err);
          if (r.has_value() && r->type == ResponseType::kHit) {
            ++traffic_hits;
          } else {
            ++traffic_wrong;
          }
        }
      }
    });
  }

  // node3 starts now, on its own clock, and joins live.
  Node* joiner = StartNode("node3", joiner_clock);
  ASSERT_NE(joiner, nullptr);
  Request migrate;
  migrate.type = RequestType::kMigrate;
  migrate.node_name = "node3";
  migrate.endpoint = "unix:" + joiner->socket;
  std::string error;
  const auto response = client.Call(migrate, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kOk) << response->message;
  const std::uint64_t moved = response->id;

  // Let post-commit traffic exercise the new ring before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : traffic) t.join();

  EXPECT_GT(traffic_hits.load(), 0u);
  EXPECT_EQ(traffic_wrong.load(), 0u)
      << "requests dropped or falsely missed during live migration";

  EXPECT_FALSE(router->migrating());
  EXPECT_EQ(router->num_nodes(), 4u);
  EXPECT_GT(router->ring_version(), v_before);
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(Counter(*router, "cortex_router_migrations"), 1u);
  EXPECT_EQ(Counter(*router, "cortex_router_migration_entries"), moved);

  // The joiner physically owns its share now, and post-commit lookups for
  // those keys hit (data moved, not just the ring).
  std::size_t owned_by_joiner = 0;
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    const std::string& key = world_.query(topic, 0);
    if (router->OwnersFor(key).front() != "node3") continue;
    ++owned_by_joiner;
    EXPECT_TRUE(joiner->engine->ContainsKey(key)) << "topic " << topic;
    const auto r = client.Call(LookupFor(topic), &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->type, ResponseType::kHit) << "topic " << topic;
  }
  EXPECT_GT(owned_by_joiner, 0u);
  EXPECT_EQ(moved, owned_by_joiner);
}

// The joiner's clock reads 1 000 s less than the sources': restored
// entries must not be dated into its future.
TEST_F(ClusterTest, LiveMigrationMovesStateWithoutDroppingRequests) {
  RunLiveMigration(kSourceClock - 1000.0);
}

// The joiner's clock reads 5 000 s more, past most TTLs: restored entries
// must keep their remaining lifetime, not expire on arrival.
TEST_F(ClusterTest, LiveMigrationToOlderJoinerKeepsEveryEntry) {
  RunLiveMigration(kSourceClock + 5000.0);
}

TEST_F(ClusterTest, MigrationToUnreachableNodeAbortsCleanly) {
  auto router = StartCluster(/*replication=*/1);
  ASSERT_NE(router, nullptr);
  BlockingClient client;
  ASSERT_TRUE(Connect(client));
  WarmThroughRouter(client, 8);
  const auto v_before = router->ring_version();

  Request migrate;
  migrate.type = RequestType::kMigrate;
  migrate.node_name = "ghost";
  migrate.endpoint = "unix:" + SocketPath("never-started");
  std::string error;
  const auto response = client.Call(migrate, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kError);

  // The abort leaves the ring and serving path untouched.
  EXPECT_FALSE(router->migrating());
  EXPECT_EQ(router->num_nodes(), 3u);
  EXPECT_EQ(router->ring_version(), v_before);
  for (std::size_t topic = 0; topic < 8; ++topic) {
    const auto r = client.Call(LookupFor(topic), &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->type, ResponseType::kHit) << "topic " << topic;
  }
}

TEST_F(ClusterTest, HelloHandshakeAcceptsMatchRejectsMismatch) {
  auto router = StartCluster(/*replication=*/1);
  ASSERT_NE(router, nullptr);

  // Version match → WELCOME with the router role.
  BlockingClient good;
  ASSERT_TRUE(Connect(good));
  std::string error;
  Request hello;
  hello.type = RequestType::kHello;
  hello.version = serve::kProtocolVersion;
  hello.role = "client";
  auto response = good.Call(hello, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kWelcome);
  EXPECT_EQ(response->id, serve::kProtocolVersion);

  // Version mismatch → ERR (fail fast instead of desynchronizing later).
  BlockingClient bad;
  ASSERT_TRUE(Connect(bad));
  const auto raw = bad.CallRaw("HELLO\t999\tclient", &error);
  ASSERT_TRUE(raw.has_value()) << error;
  const auto parsed = serve::ParseResponse(*raw);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, ResponseType::kError);

  // Pre-cluster clients that skip HELLO keep working unchanged.
  BlockingClient plain;
  ASSERT_TRUE(Connect(plain));
  Request ping;
  ping.type = RequestType::kPing;
  response = plain.Call(ping, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kPong);
}

TEST_F(ClusterTest, RouterMetricsVisibleViaStatsClusterAndPrometheus) {
  auto router = StartCluster(/*replication=*/2);
  ASSERT_NE(router, nullptr);
  BlockingClient client;
  ASSERT_TRUE(Connect(client));
  WarmThroughRouter(client, 6);
  std::string error;
  for (std::size_t topic = 0; topic < 6; ++topic) {
    const auto r = client.Call(LookupFor(topic), &error);
    ASSERT_TRUE(r.has_value()) << error;
    ASSERT_EQ(r->type, ResponseType::kHit);
  }

  // STATS dumps the router registry over the wire.
  Request stats;
  stats.type = RequestType::kStats;
  auto response = client.Call(stats, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kStats);
  std::uint64_t lookups = 0, inserts = 0;
  bool saw_node_counter = false;
  for (const auto& [key, value] : response->stats) {
    if (key == "cortex_router_lookups") lookups = std::stoull(value);
    if (key == "cortex_router_inserts") inserts = std::stoull(value);
    if (key.rfind("cortex_cluster_node_", 0) == 0) saw_node_counter = true;
  }
  EXPECT_EQ(lookups, 6u);
  EXPECT_EQ(inserts, 6u);
  EXPECT_TRUE(saw_node_counter);

  // CLUSTER reports ring + per-node health.
  Request cluster_req;
  cluster_req.type = RequestType::kCluster;
  response = client.Call(cluster_req, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kStats);
  std::set<std::string> keys;
  for (const auto& [key, value] : response->stats) keys.insert(key);
  EXPECT_TRUE(keys.count("ring_version"));
  EXPECT_TRUE(keys.count("nodes"));
  EXPECT_TRUE(keys.count("replication"));
  EXPECT_TRUE(keys.count("node0_healthy"));

  // Prometheus text rendering carries the same instruments.
  const std::string prom =
      router->registry()->Snapshot().RenderText();
  EXPECT_NE(prom.find("cortex_router_lookups"), std::string::npos);
  EXPECT_NE(prom.find("cortex_router_requests_served"), std::string::npos);

  // Node-only verbs are refused at the router.
  Request snapshot;
  snapshot.type = RequestType::kSnapshot;
  response = client.Call(snapshot, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kError);
}

}  // namespace
}  // namespace cortex
