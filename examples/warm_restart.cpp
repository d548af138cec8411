// Warm restart: demonstrates engine snapshots (core/snapshot.h).
//
// Phase 1 serves half the workload cold and saves the cache to disk.
// Phase 2 simulates a process restart: a brand-new engine loads the
// snapshot and serves the second half, compared against a cold restart.
// The warm instance skips the cold-start misses — exactly what a real
// deployment wants after a rolling upgrade.
//
//   ./build/examples/warm_restart [--tasks=600] [--ratio=0.5]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/snapshot.h"
#include "embedding/hashed_embedder.h"
#include "serve/resolvers.h"
#include "sim/driver.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/workloads.h"

using namespace cortex;

namespace {

struct Phase {
  RunMetrics metrics;
  std::uint64_t api_calls = 0;
};

Phase ServeSlice(const WorkloadBundle& bundle,
                 std::vector<AgentTask> tasks, double ratio,
                 const std::string& snapshot_in,
                 const std::string& snapshot_out) {
  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());
  AgentModel agent;
  ColocationSimulator gpu(DeploymentConfig::Colocated80_20());
  RemoteDataService service(RemoteDataService::GoogleSearchApi());

  serve::ConcurrentEngineOptions opts;
  opts.cache.capacity_tokens = ratio * bundle.TotalKnowledgeTokens();
  opts.recalibration_interval_sec = 60.0;
  ResolverEnvironment env{&gpu, &service, bundle.oracle.get()};
  CortexResolver resolver(env, &embedder, &judger, std::move(opts));
  serve::ConcurrentShardedEngine& engine = resolver.engine();

  if (!snapshot_in.empty()) {
    std::ifstream in(snapshot_in, std::ios::binary);
    const auto stats = engine.LoadSnapshot(in);
    std::cout << "  loaded snapshot: " << stats.entries_restored
              << " restored, " << stats.entries_expired << " expired, "
              << stats.entries_rejected << " rejected\n";
  }

  DriverOptions driver_opts;
  driver_opts.request_rate = 2.0;
  ServingDriver driver(agent, gpu, resolver, driver_opts);

  Phase phase;
  phase.metrics = driver.Run(std::move(tasks));
  phase.api_calls = service.total_calls();

  if (!snapshot_out.empty()) {
    // The snapshot is stamped with the engine's clock, the simulation time
    // of its last operation: the next process's clock starts again from 0,
    // and the load rebases every entry's timestamps onto it.
    std::ofstream out(snapshot_out, std::ios::binary);
    const auto stats = engine.SaveSnapshot(out);
    std::cout << "  saved snapshot: " << stats.entries_written
              << " entries\n";
  }
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto profile = SearchDatasetProfile::HotpotQa();
  profile.num_tasks = static_cast<std::size_t>(flags.GetInt("tasks", 600));
  const double ratio = flags.GetDouble("ratio", 0.5);
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  const auto half = bundle.tasks.size() / 2;
  std::vector<AgentTask> first(bundle.tasks.begin(),
                               bundle.tasks.begin() + half);
  std::vector<AgentTask> second(bundle.tasks.begin() + half,
                                bundle.tasks.end());
  const std::string snapshot = "/tmp/cortex_warm_restart.snapshot";

  std::cout << "phase 1: cold start, " << first.size()
            << " tasks, snapshot on exit\n";
  const Phase p1 = ServeSlice(bundle, first, ratio, "", snapshot);

  std::cout << "\nphase 2a: restart COLD (no snapshot), " << second.size()
            << " tasks\n";
  const Phase cold = ServeSlice(bundle, second, ratio, "", "");

  std::cout << "\nphase 2b: restart WARM (snapshot loaded)\n";
  const Phase warm = ServeSlice(bundle, second, ratio, snapshot, "");
  std::remove(snapshot.c_str());

  TextTable table({"phase", "hit rate", "throughput (req/s)",
                   "mean latency (s)", "API calls"});
  auto row = [&](const char* name, const Phase& p) {
    table.AddRow({name, TextTable::Percent(p.metrics.CacheHitRate()),
                  TextTable::Num(p.metrics.Throughput()),
                  TextTable::Num(p.metrics.MeanLatency(), 2),
                  std::to_string(p.api_calls)});
  };
  std::cout << '\n';
  row("1: cold start", p1);
  row("2a: restart cold", cold);
  row("2b: restart warm", warm);
  std::cout << table.Render()
            << "\nwarm restart skips the cold-start miss burst: higher hit"
               " rate, fewer remote calls, lower latency from request one.\n";
  return 0;
}
