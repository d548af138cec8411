// Coding agent scenario: a SWE-bench-style stream of GitHub issues against
// one repository.  Issues repeatedly pull the same core files through the
// remote RAG service with different phrasings; Cortex's semantic matching
// recognises the shared file context where an exact-match cache cannot.
//
//   ./build/examples/coding_agent [--issues=300] [--ratio=0.4] [--concurrency=8]
#include <iostream>

#include "embedding/hashed_embedder.h"
#include "serve/resolvers.h"
#include "sim/driver.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/workload_stats.h"
#include "workload/workloads.h"

using namespace cortex;

namespace {

struct Row {
  RunMetrics metrics;
  std::uint64_t api_calls = 0;
};

Row Serve(const std::string& system, const WorkloadBundle& bundle,
          double ratio, double rate) {
  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());
  AgentModel agent(ModelSpec::Coder8B());
  ColocationSimulator gpu(DeploymentConfig::Colocated80_20());
  // Coding uses the self-hosted RAG backend (~300 ms RTT, no hard quota).
  RemoteDataService service(RemoteDataService::SelfHostedRag());

  const double capacity = ratio * bundle.TotalKnowledgeTokens();
  ResolverEnvironment env{&gpu, &service, bundle.oracle.get()};

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

  DriverOptions driver_opts;
  // Closed loop: a fixed pool of concurrent issues, as an agent fleet
  // working through a backlog — per-request latency then translates
  // directly into throughput.
  driver_opts.arrival = DriverOptions::Arrival::kClosedLoop;
  driver_opts.concurrency = static_cast<std::size_t>(rate);
  ServingDriver driver(agent, gpu, *resolver, driver_opts);
  Row row;
  row.metrics = driver.Run(bundle.tasks);
  row.api_calls = service.total_calls();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  SweBenchProfile profile;
  profile.num_issues = static_cast<std::size_t>(flags.GetInt("issues", 300));
  const double ratio = flags.GetDouble("ratio", 0.4);
  const double rate = flags.GetDouble("concurrency", 8.0);

  const WorkloadBundle bundle = BuildSweBenchWorkload(profile);

  // Table-2 style: how often each head file is needed across issues.
  const auto freqs = FileAccessFrequencies(bundle);
  TextTable table2({"file-id", "access freq."});
  for (std::size_t f = 0; f < profile.head_frequencies.size(); ++f) {
    table2.AddRow({std::to_string(f + 1), TextTable::Num(freqs[f])});
  }
  std::cout << "file access frequency across " << bundle.tasks.size()
            << " issues (cf. paper Table 2):\n"
            << table2.Render() << '\n';

  TextTable results({"system", "throughput (req/s)", "hit rate",
                     "mean latency (s)", "accuracy", "RAG calls"});
  for (const std::string system : {"vanilla", "exact", "cortex"}) {
    const Row row = Serve(system, bundle, ratio, rate);
    results.AddRow({system, TextTable::Num(row.metrics.Throughput()),
                    TextTable::Percent(row.metrics.CacheHitRate()),
                    TextTable::Num(row.metrics.MeanLatency(), 3),
                    TextTable::Percent(row.metrics.Accuracy()),
                    std::to_string(row.api_calls)});
  }
  std::cout << results.Render();
  return 0;
}
