// Cluster-tier bench: wall-clock throughput through cortex_router over an
// in-process 3-node cortexd cluster, plus a live migration (node 3 starts
// and joins mid-traffic) timed under load.  The whole topology — three
// ConcurrentShardedEngine+CortexServer nodes on Unix sockets, one
// ClusterRouter — lives in this process, so the bench runs anywhere ctest
// does.
//
// Flags:
//   --tasks=400        workload size (Musique profile)
//   --threads=4        client threads against the router
//   --replication=2    owners per key
//   --json             also write BENCH_cluster.json for the CI
//                      bench-diff flywheel
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "cluster/router.h"
#include "serve/client.h"
#include "serve/concurrent_engine.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/table.h"

using namespace cortex;
using namespace cortex::bench;

namespace {

struct Node {
  std::unique_ptr<serve::ConcurrentShardedEngine> engine;
  std::unique_ptr<serve::CortexServer> server;
  std::string socket;
};

std::unique_ptr<Node> StartNode(const WorkloadBundle& bundle,
                                const HashedEmbedder& embedder,
                                const JudgerModel& judger, int index,
                                std::size_t workers) {
  auto node = std::make_unique<Node>();
  node->socket = "/tmp/bench_cluster_" + std::to_string(::getpid()) + "_" +
                 std::to_string(index) + ".sock";
  serve::ConcurrentEngineOptions eopts;
  eopts.num_shards = 2;
  eopts.cache.capacity_tokens = 0.4 * bundle.TotalKnowledgeTokens();
  eopts.housekeeping_interval_sec = 0.0;
  node->engine = std::make_unique<serve::ConcurrentShardedEngine>(
      &embedder, &judger, eopts);
  serve::ServerOptions sopts;
  sopts.unix_path = node->socket;
  // cortexd serves thread-per-connection, and the router's pools hold
  // persistent connections — each node needs enough workers to cover every
  // router worker plus the migration stream (DESIGN.md §10 sizing rule).
  sopts.num_workers = workers;
  sopts.max_frame_bytes = std::size_t{64} << 20;
  node->server = std::make_unique<serve::CortexServer>(node->engine.get(),
                                                       sopts);
  std::string error;
  if (!node->server->Start(&error)) {
    std::cerr << "bench_cluster: node start failed: " << error << "\n";
    std::exit(1);
  }
  return node;
}

struct Phase {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t errors = 0;
  double wall = 0.0;

  double Throughput() const {
    return wall > 0 ? static_cast<double>(requests) / wall : 0.0;
  }
  double HitRate() const {
    const auto lookups = hits + misses;
    return lookups ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
  }
};

// Closed-loop LOOKUP / INSERT-on-miss replay through the router.
Phase Replay(int port, const std::vector<const std::string*>& queries,
             const GroundTruthOracle& oracle, std::size_t threads) {
  std::vector<Phase> locals(threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      Phase& local = locals[tid];
      serve::BlockingClient client;
      std::string err;
      if (!client.ConnectTcp("127.0.0.1", port, &err)) {
        ++local.errors;
        return;
      }
      for (std::size_t i = tid; i < queries.size(); i += threads) {
        const std::string& query = *queries[i];
        serve::Request lookup;
        lookup.type = serve::RequestType::kLookup;
        lookup.query = query;
        const auto response = client.Call(lookup, &err);
        ++local.requests;
        if (!response) {
          ++local.errors;
          return;
        }
        if (response->type == serve::ResponseType::kHit) {
          ++local.hits;
          continue;
        }
        if (response->type != serve::ResponseType::kMiss) {
          ++local.errors;
          continue;
        }
        ++local.misses;
        serve::Request insert;
        insert.type = serve::RequestType::kInsert;
        insert.key = query;
        insert.value = oracle.ExpectedInfo(query);
        insert.staticity = oracle.Staticity(query);
        if (insert.value.empty()) continue;
        const auto inserted = client.Call(insert, &err);
        ++local.requests;
        if (!inserted || (inserted->type != serve::ResponseType::kOk &&
                          inserted->type != serve::ResponseType::kReject)) {
          ++local.errors;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  Phase total;
  total.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const Phase& l : locals) {
    total.requests += l.requests;
    total.hits += l.hits;
    total.misses += l.misses;
    total.errors += l.errors;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool csv = flags.GetBool("csv", false);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 400));
  const auto threads =
      static_cast<std::size_t>(flags.GetInt("threads", 4));
  const auto replication =
      static_cast<std::size_t>(flags.GetInt("replication", 2));

  auto profile = SearchDatasetProfile::Musique();
  profile.num_tasks = tasks;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);
  HashedEmbedder embedder;
  embedder.FitIdf(bundle.AllQueries());
  JudgerModel judger(bundle.oracle.get());

  std::vector<const std::string*> queries;
  for (const auto& task : bundle.tasks) {
    for (const auto& step : task.steps) queries.push_back(&step.query);
  }

  // node3 starts only at migration time, so its engine clock is younger
  // than the sources' and every migrated entry crosses clock domains.
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(StartNode(bundle, embedder, judger, i, threads + 2));
  }

  cluster::RouterOptions ropts;
  ropts.port = 0;
  ropts.num_workers = threads;
  ropts.ring.replication = replication;
  ropts.embedder = &embedder;
  cluster::ClusterRouter router(ropts);
  std::string error;
  for (int i = 0; i < 3; ++i) {
    if (!router.AddNode("node" + std::to_string(i),
                        "unix:" + nodes[static_cast<std::size_t>(i)]->socket,
                        &error)) {
      std::cerr << "bench_cluster: " << error << "\n";
      return 1;
    }
  }
  if (!router.Start(&error)) {
    std::cerr << "bench_cluster: " << error << "\n";
    return 1;
  }

  std::cout << "=== cluster bench: " << queries.size() << " queries, "
            << threads << " client threads, 3 nodes + router, replication="
            << replication << " ===\n\n";

  // Phase 1: cold cluster warms up through the router.
  const Phase warm = Replay(router.port(), queries, *bundle.oracle, threads);

  // Phase 2: node3 starts and joins via live MIGRATE while the same
  // traffic replays.
  Phase under_migration;
  std::uint64_t migrated_entries = 0;
  double migration_wall = 0.0;
  nodes.push_back(StartNode(bundle, embedder, judger, 3, threads + 2));
  {
    std::thread traffic([&] {
      under_migration =
          Replay(router.port(), queries, *bundle.oracle, threads);
    });
    serve::BlockingClient op;
    std::string err;
    if (!op.ConnectTcp("127.0.0.1", router.port(), &err)) {
      std::cerr << "bench_cluster: operator connect failed: " << err << "\n";
      traffic.join();
      return 1;
    }
    op.SetMaxFrameBytes(std::size_t{64} << 20);
    serve::Request migrate;
    migrate.type = serve::RequestType::kMigrate;
    migrate.node_name = "node3";
    migrate.endpoint = "unix:" + nodes[3]->socket;
    const auto t0 = std::chrono::steady_clock::now();
    const auto response = op.Call(migrate, &err);
    migration_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    traffic.join();
    if (!response || response->type != serve::ResponseType::kOk) {
      std::cerr << "bench_cluster: MIGRATE failed: "
                << (response ? response->message : err) << "\n";
      return 1;
    }
    migrated_entries = response->id;
  }

  // Phase 3: steady state on the 4-node ring.
  const Phase after = Replay(router.port(), queries, *bundle.oracle, threads);

  const auto counter = [&](const char* name) {
    return router.registry()->GetCounter(name)->Value();
  };
  const std::uint64_t migration_bytes =
      counter("cortex_router_migration_bytes");

  TextTable table({"phase", "requests", "throughput (req/s)", "hit rate",
                   "errors"});
  table.AddRow({"warmup (3 nodes)", std::to_string(warm.requests),
                TextTable::Num(warm.Throughput()),
                TextTable::Percent(warm.HitRate()),
                std::to_string(warm.errors)});
  table.AddRow({"during migration", std::to_string(under_migration.requests),
                TextTable::Num(under_migration.Throughput()),
                TextTable::Percent(under_migration.HitRate()),
                std::to_string(under_migration.errors)});
  table.AddRow({"after (4 nodes)", std::to_string(after.requests),
                TextTable::Num(after.Throughput()),
                TextTable::Percent(after.HitRate()),
                std::to_string(after.errors)});
  table.Print(std::cout, csv);

  std::cout << "\nmigration: " << migrated_entries << " entries, "
            << migration_bytes << " bytes streamed, "
            << TextTable::Num(migration_wall, 2) << "s wall (ring v"
            << router.ring_version() << ", failovers="
            << counter("cortex_router_failovers") << ", double_reads="
            << counter("cortex_router_double_reads") << ", dual_writes="
            << counter("cortex_router_dual_writes") << ")\n";

  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_cluster.json");
    out << "{\n  \"benchmark\": \"cluster_router\",\n  \"tasks\": " << tasks
        << ",\n  \"threads\": " << threads
        << ",\n  \"replication\": " << replication
        << ",\n  \"warm_hit_rate\": " << warm.HitRate()
        << ",\n  \"after_hit_rate\": " << after.HitRate()
        << ",\n  \"errors\": "
        << warm.errors + under_migration.errors + after.errors
        << ",\n  \"migrated_entries\": " << migrated_entries
        << ",\n  \"migration_bytes\": " << migration_bytes
        << ",\n  \"throughput_rps\": " << after.Throughput()
        << ",\n  \"migration_seconds\": " << migration_wall << "\n}\n";
    std::cout << "wrote BENCH_cluster.json\n";
  }

  router.Stop();
  for (auto& node : nodes) node->server->Stop();
  const bool failed =
      warm.errors + under_migration.errors + after.errors > 0;
  if (failed) {
    std::cerr << "\nFAIL: request errors during the run\n";
    return 1;
  }
  return 0;
}
