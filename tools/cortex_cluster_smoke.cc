// CI smoke for the cluster tier, single process: three cortexd nodes and a
// cortex_router as in-process threads, loadgen-style cluster traffic (many
// clients, zipf-skewed key popularity) driven through the router, one live
// MIGRATE mid-traffic.  Exits non-zero on ANY dropped request, transport
// error, or false miss — this is the zero-loss acceptance gate, sized to
// stay fast under the ASan/TSan ctest legs.
//
// Flags: --tasks=120 --clients=4 --rounds=3 --skew=1.1 --replication=2
// plus the ServingWorld workload flags (--workload/--seed/--trace).
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cluster/router.h"
#include "serve/client.h"
#include "serve/concurrent_engine.h"
#include "serve/server.h"
#include "serve/serving_world.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace cortex;

namespace {

struct Node {
  std::string name;
  std::string socket;
  std::unique_ptr<serve::ConcurrentShardedEngine> engine;
  std::unique_ptr<serve::CortexServer> server;
};

std::unique_ptr<Node> StartNode(const serve::ServingWorld& world, int index,
                                std::size_t workers) {
  auto node = std::make_unique<Node>();
  node->name = "node" + std::to_string(index);
  node->socket = "/tmp/cortex_smoke_" + std::to_string(::getpid()) + "_" +
                 std::to_string(index) + ".sock";
  serve::ConcurrentEngineOptions eopts;
  eopts.num_shards = 2;
  eopts.cache.capacity_tokens = 1e7;
  eopts.housekeeping_interval_sec = 0.05;
  node->engine = std::make_unique<serve::ConcurrentShardedEngine>(
      &world.embedder, world.judger.get(), eopts);
  serve::ServerOptions sopts;
  sopts.unix_path = node->socket;
  // Thread-per-connection: cover every router worker, the migration
  // stream, and slack (DESIGN.md §10 sizing rule).
  sopts.num_workers = workers;
  sopts.max_frame_bytes = std::size_t{64} << 20;
  node->server = std::make_unique<serve::CortexServer>(node->engine.get(),
                                                       sopts);
  std::string error;
  if (!node->server->Start(&error)) {
    std::cerr << "cluster_smoke: " << node->name << " failed to start: "
              << error << "\n";
    std::exit(1);
  }
  return node;
}

}  // namespace

int main(int argc, char** argv) {
  // Default to a small workload (--tasks=120) so the smoke stays fast under
  // the sanitizer ctest legs; explicit flags still win.
  std::vector<const char*> args(argv, argv + argc);
  if (!Flags(argc, argv).Has("tasks")) args.push_back("--tasks=120");
  Flags flags(static_cast<int>(args.size()), args.data());
  const auto clients = static_cast<std::size_t>(flags.GetInt("clients", 4));
  const auto rounds = static_cast<std::size_t>(flags.GetInt("rounds", 3));
  const double skew = flags.GetDouble("skew", 1.1);
  const auto replication =
      static_cast<std::size_t>(flags.GetInt("replication", 2));

  std::string error;
  const auto world = serve::BuildServingWorld(flags, &error);
  if (!world) {
    std::cerr << "cluster_smoke: " << error << "\n";
    return 1;
  }
  const auto& oracle = *world->bundle.oracle;

  // The deterministic key set: ONE canonical paraphrase per topic.  Keys of
  // distinct topics never dedup/replace each other, so once inserted, an
  // exact-key LOOKUP must hit forever — any miss is a lost entry, not
  // semantic-cache noise.  (Inserting multiple paraphrases of one topic
  // would let key-replace retire earlier keys, which is correct cache
  // behaviour but would muddy the zero-loss assertion.)
  std::vector<const std::string*> keys;
  for (const auto& topic : world->bundle.universe->topics()) {
    const std::string& key = topic.paraphrases.front();
    if (!oracle.ExpectedInfo(key).empty()) keys.push_back(&key);
  }
  if (keys.empty()) {
    std::cerr << "cluster_smoke: workload produced no usable keys\n";
    return 1;
  }

  // node3 starts only at MIGRATE time, so its engine clock is younger than
  // the sources' and every migrated entry crosses clock domains.
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(StartNode(*world, i, clients + 3));
  }

  cluster::RouterOptions ropts;
  ropts.port = 0;
  ropts.num_workers = clients;
  ropts.ring.replication = replication;
  ropts.embedder = &world->embedder;
  cluster::ClusterRouter router(ropts);
  for (int i = 0; i < 3; ++i) {
    if (!router.AddNode(nodes[static_cast<std::size_t>(i)]->name,
                        "unix:" + nodes[static_cast<std::size_t>(i)]->socket,
                        &error)) {
      std::cerr << "cluster_smoke: " << error << "\n";
      return 1;
    }
  }
  if (!router.Start(&error)) {
    std::cerr << "cluster_smoke: router failed to start: " << error << "\n";
    return 1;
  }

  // Warm: insert every key once through the router, then capture the
  // pre-migration baseline with one verification sweep.  The judger's
  // deterministic pseudo-noise rejects a small tail of keys even on an
  // exact self-match (working as designed — same verdict every time), so
  // the zero-loss invariant is over the keys that hit NOW: traffic and the
  // post-migration sweep must reproduce every one of these hits exactly.
  std::vector<const std::string*> stable;
  {
    serve::BlockingClient client;
    if (!client.ConnectTcp("127.0.0.1", router.port(), &error)) {
      std::cerr << "cluster_smoke: connect failed: " << error << "\n";
      return 1;
    }
    for (const std::string* key : keys) {
      serve::Request insert;
      insert.type = serve::RequestType::kInsert;
      insert.key = *key;
      insert.value = oracle.ExpectedInfo(*key);
      insert.staticity = oracle.Staticity(*key);
      const auto response = client.Call(insert, &error);
      if (!response || response->type != serve::ResponseType::kOk) {
        std::cerr << "cluster_smoke: warm insert failed for '" << *key
                  << "': " << (response ? response->message : error) << "\n";
        return 1;
      }
    }
    for (const std::string* key : keys) {
      serve::Request lookup;
      lookup.type = serve::RequestType::kLookup;
      lookup.query = *key;
      const auto response = client.Call(lookup, &error);
      if (!response) {
        std::cerr << "cluster_smoke: baseline sweep failed: " << error
                  << "\n";
        return 1;
      }
      if (response->type == serve::ResponseType::kHit) stable.push_back(key);
    }
  }
  if (stable.size() < keys.size() * 8 / 10) {
    std::cerr << "cluster_smoke: only " << stable.size() << "/" << keys.size()
              << " keys hit pre-migration — cache is misbehaving before the"
                 " cluster is even exercised\n";
    return 1;
  }

  // Traffic: zipf-skewed exact-key lookups, loadgen cluster-mode style.
  // Runs across the migration below; every response must be a HIT.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0}, failures{0};
  std::vector<std::thread> traffic;
  for (std::size_t tid = 0; tid < clients; ++tid) {
    traffic.emplace_back([&, tid] {
      serve::BlockingClient client;
      std::string err;
      if (!client.ConnectTcp("127.0.0.1", router.port(), &err)) {
        ++failures;
        return;
      }
      Rng rng(0x5eedULL * (tid + 1));
      ZipfSampler zipf(stable.size(), skew);
      for (std::size_t round = 0; round < rounds && !stop.load(); ++round) {
        for (std::size_t n = 0; n < stable.size(); ++n) {
          serve::Request lookup;
          lookup.type = serve::RequestType::kLookup;
          lookup.query = *stable[zipf.Sample(rng)];
          const auto response = client.Call(lookup, &err);
          if (response && response->type == serve::ResponseType::kHit) {
            ++served;
          } else {
            ++failures;
            std::cerr << "cluster_smoke: lookup failed for '" << lookup.query
                      << "': "
                      << (response ? serve::EncodePayload(*response) : err)
                      << "\n";
          }
        }
      }
    });
  }

  // One live migration while the traffic runs: node3 starts and joins the
  // ring.
  std::uint64_t moved = 0;
  nodes.push_back(StartNode(*world, 3, clients + 3));
  {
    serve::BlockingClient op;
    if (!op.ConnectTcp("127.0.0.1", router.port(), &error)) {
      std::cerr << "cluster_smoke: operator connect failed: " << error
                << "\n";
      stop = true;
      for (auto& t : traffic) t.join();
      return 1;
    }
    serve::Request migrate;
    migrate.type = serve::RequestType::kMigrate;
    migrate.node_name = nodes[3]->name;
    migrate.endpoint = "unix:" + nodes[3]->socket;
    const auto response = op.Call(migrate, &error);
    if (!response || response->type != serve::ResponseType::kOk) {
      std::cerr << "cluster_smoke: MIGRATE failed: "
                << (response ? response->message : error) << "\n";
      stop = true;
      for (auto& t : traffic) t.join();
      return 1;
    }
    moved = response->id;
  }
  for (auto& t : traffic) t.join();

  // Post-migration sweep on the 4-node ring: every baseline hit must still
  // be a hit — migration may not lose a single entry.
  {
    serve::BlockingClient client;
    if (!client.ConnectTcp("127.0.0.1", router.port(), &error)) {
      std::cerr << "cluster_smoke: connect failed: " << error << "\n";
      return 1;
    }
    for (const std::string* key : stable) {
      serve::Request lookup;
      lookup.type = serve::RequestType::kLookup;
      lookup.query = *key;
      const auto response = client.Call(lookup, &error);
      if (!response || response->type != serve::ResponseType::kHit) {
        ++failures;
        std::cerr << "cluster_smoke: post-migration miss for '" << *key
                  << "'\n";
      } else {
        ++served;
      }
    }
  }

  const auto counter = [&](const char* name) {
    return router.registry()->GetCounter(name)->Value();
  };
  std::cout << "cluster_smoke: " << served.load() << " requests served, "
            << stable.size() << "/" << keys.size()
            << " baseline keys, migration moved " << moved
            << " entries (ring v" << router.ring_version() << ", "
            << router.num_nodes() << " nodes, failovers="
            << counter("cortex_router_failovers") << ", protocol_errors="
            << counter("cortex_router_protocol_errors") << ")\n";

  router.Drain(2.0);
  for (auto& node : nodes) node->server->Drain(2.0);

  if (failures.load() != 0 || router.num_nodes() != 4 ||
      counter("cortex_router_migrations") != 1) {
    std::cerr << "cluster_smoke: FAIL (" << failures.load()
              << " dropped/erroneous requests)\n";
    return 1;
  }
  std::cout << "cluster_smoke: PASS (zero dropped requests, zero false"
               " misses)\n";
  return 0;
}
