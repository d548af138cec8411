// Quickstart: build a skewed search workload, serve it three ways
// (no cache / exact-match cache / Cortex), and compare throughput, hit
// rate, latency, accuracy, and API cost.
//
//   ./build/examples/quickstart [--tasks=400] [--ratio=0.4] [--rate=2.0]
#include <iostream>

#include "embedding/hashed_embedder.h"
#include "serve/resolvers.h"
#include "sim/driver.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/workloads.h"

using namespace cortex;

namespace {

struct RunOutput {
  RunMetrics metrics;
  double hit_rate = 0.0;
  std::uint64_t service_calls = 0;
  double service_cost = 0.0;
};

RunOutput RunOnce(const std::string& system, const WorkloadBundle& bundle,
                  double cache_ratio, double request_rate) {
  // Fresh components per run so systems do not share state.
  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());
  AgentModel agent;
  ColocationSimulator gpu(DeploymentConfig::Colocated80_20());
  RemoteDataService service(RemoteDataService::GoogleSearchApi());

  const double capacity = cache_ratio * bundle.TotalKnowledgeTokens();
  ResolverEnvironment env{&gpu, &service, bundle.oracle.get()};

  DriverOptions driver_opts;
  driver_opts.request_rate = request_rate;

  std::unique_ptr<ToolResolver> resolver;
  if (system == "vanilla") {
    resolver = std::make_unique<VanillaResolver>(env);
  } else if (system == "exact") {
    resolver = std::make_unique<ExactCacheResolver>(
        env, ExactCacheOptions{.capacity_tokens = capacity});
  } else {
    serve::ConcurrentEngineOptions opts;
    opts.cache.capacity_tokens = capacity;
    opts.recalibration_interval_sec = 60.0;
    resolver = std::make_unique<CortexResolver>(env, &embedder, &judger,
                                                std::move(opts));
  }

  ServingDriver driver(agent, gpu, *resolver, driver_opts);
  RunOutput out;
  out.metrics = driver.Run(bundle.tasks);
  out.hit_rate = out.metrics.CacheHitRate();
  out.service_calls = service.total_calls();
  out.service_cost = service.total_cost_dollars();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 400));
  const double ratio = flags.GetDouble("ratio", 0.4);
  const double rate = flags.GetDouble("rate", 2.0);

  auto profile = SearchDatasetProfile::HotpotQa();
  profile.num_tasks = tasks;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);
  std::cout << "workload: " << bundle.name << ", " << bundle.tasks.size()
            << " tasks over " << bundle.universe->size() << " topics ("
            << bundle.TotalKnowledgeTokens() << " knowledge tokens)\n\n";

  TextTable table({"system", "throughput (req/s)", "mean latency (s)",
                   "p99 (s)", "hit rate", "accuracy", "API calls",
                   "API cost ($)"});
  for (const std::string system : {"vanilla", "exact", "cortex"}) {
    const RunOutput out = RunOnce(system, bundle, ratio, rate);
    table.AddRow({system, TextTable::Num(out.metrics.Throughput()),
                  TextTable::Num(out.metrics.MeanLatency(), 3),
                  TextTable::Num(out.metrics.P99Latency(), 3),
                  TextTable::Percent(out.metrics.CacheHitRate()),
                  TextTable::Percent(out.metrics.Accuracy()),
                  std::to_string(out.service_calls),
                  TextTable::Num(out.service_cost, 3)});
  }
  std::cout << table.Render();
  return 0;
}
