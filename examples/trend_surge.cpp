// Trend surge scenario: a 10-minute trace with Google-Trends-style traffic
// spikes (each trending topic drags correlated follow-up topics with it).
// Shows how the staticity-aware LCFU policy self-cleans after each wave and
// how Markov prefetching absorbs the correlated follow-ups.
//
//   ./build/examples/trend_surge [--ratio=0.3] [--no-prefetch]
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

RunMetrics Serve(const WorkloadBundle& bundle, double ratio,
                 bool prefetch_enabled, std::uint64_t* prefetches) {
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
  CortexResolverOptions resolver_opts;
  resolver_opts.prefetch_enabled = prefetch_enabled;

  ResolverEnvironment env{&gpu, &service, bundle.oracle.get()};
  CortexResolver resolver(env, &embedder, &judger, std::move(opts),
                          resolver_opts);

  DriverOptions driver_opts;
  driver_opts.explicit_arrivals = bundle.arrivals;
  ServingDriver driver(agent, gpu, resolver, driver_opts);
  RunMetrics metrics = driver.Run(bundle.tasks);
  if (prefetches != nullptr) *prefetches = resolver.prefetch_issued();
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double ratio = flags.GetDouble("ratio", 0.3);
  const bool prefetch = !flags.GetBool("no-prefetch", false);

  TrendProfile profile;
  const WorkloadBundle bundle = BuildTrendWorkload(profile);
  std::cout << "trace: " << bundle.tasks.size() << " tasks over "
            << profile.duration_sec << "s, " << profile.num_trend_topics
            << " trending topics (+" << profile.related_per_trend
            << " correlated each)\n\n";

  // Show the burst structure the trace carries (Fig. 3's phenomenon).
  const std::size_t group = 1 + profile.related_per_trend;
  const auto series = TopicTimeSeries(bundle, 30.0,
                                      profile.num_trend_topics * group);
  TextTable bursts({"trend topic", "burstiness (peak/mean)",
                    "corr. with its related topic"});
  for (std::size_t s = 0; s < profile.num_trend_topics; ++s) {
    bursts.AddRow({"trend-" + std::to_string(s),
                   TextTable::Num(Burstiness(series[s * group])),
                   TextTable::Num(PearsonCorrelation(series[s * group],
                                                     series[s * group + 1]),
                                  3)});
  }
  std::cout << bursts.Render() << '\n';

  std::uint64_t prefetches = 0;
  const RunMetrics metrics = Serve(bundle, ratio, prefetch, &prefetches);

  TextTable result({"metric", "value"});
  result.AddRow({"prefetching", prefetch ? "on" : "off"});
  result.AddRow({"throughput (req/s)", TextTable::Num(metrics.Throughput())});
  result.AddRow({"cache hit rate", TextTable::Percent(metrics.CacheHitRate())});
  result.AddRow({"mean latency (s)", TextTable::Num(metrics.MeanLatency(), 3)});
  result.AddRow({"p99 latency (s)", TextTable::Num(metrics.P99Latency(), 3)});
  result.AddRow({"EM accuracy", TextTable::Percent(metrics.Accuracy())});
  result.AddRow({"prefetches issued", std::to_string(prefetches)});
  std::cout << result.Render();
  return 0;
}
