// End-to-end integration tests: full workloads served through the full
// stack, asserting the paper's qualitative claims hold in miniature.
#include <gtest/gtest.h>

#include "embedding/hashed_embedder.h"
#include "serve/resolvers.h"
#include "sim/driver.h"
#include "workload/workloads.h"

namespace cortex {
namespace {

struct RunResult {
  RunMetrics metrics;
  std::uint64_t api_calls = 0;
  double api_cost = 0.0;
};

RunResult Serve(const std::string& system, const WorkloadBundle& bundle,
                double cache_ratio, DriverOptions driver_opts,
                RemoteServiceOptions service_opts =
                    RemoteDataService::GoogleSearchApi()) {
  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());
  AgentModel agent;
  ColocationSimulator gpu(DeploymentConfig::Colocated80_20());
  RemoteDataService service(service_opts);
  const double capacity = cache_ratio * bundle.TotalKnowledgeTokens();
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
    if (system == "ann-only") opts.cache.sine.use_judger = false;
    resolver = std::make_unique<CortexResolver>(env, &embedder, &judger,
                                                std::move(opts));
  }

  ServingDriver driver(agent, gpu, *resolver, driver_opts);
  RunResult result;
  result.metrics = driver.Run(bundle.tasks);
  result.api_calls = service.total_calls();
  result.api_cost = service.total_cost_dollars();
  return result;
}

WorkloadBundle SmallSearchBundle(std::size_t tasks = 300) {
  auto profile = SearchDatasetProfile::HotpotQa();
  profile.num_tasks = tasks;
  return BuildSkewedSearchWorkload(profile);
}

DriverOptions Rate(double r) {
  DriverOptions opts;
  opts.request_rate = r;
  return opts;
}

TEST(Integration, CortexBeatsBaselinesOnSkewedSearch) {
  const auto bundle = SmallSearchBundle();
  const auto vanilla = Serve("vanilla", bundle, 0.5, Rate(4.0));
  const auto exact = Serve("exact", bundle, 0.5, Rate(4.0));
  const auto cortex = Serve("cortex", bundle, 0.5, Rate(4.0));

  // Throughput ordering (Fig. 7): cortex > exact >= vanilla.
  EXPECT_GT(cortex.metrics.Throughput(), 1.3 * exact.metrics.Throughput());
  EXPECT_GT(cortex.metrics.Throughput(), 1.3 * vanilla.metrics.Throughput());
  // Hit rates: semantic >> exact >> none.
  EXPECT_DOUBLE_EQ(vanilla.metrics.CacheHitRate(), 0.0);
  EXPECT_GT(cortex.metrics.CacheHitRate(),
            exact.metrics.CacheHitRate() + 0.25);
  // Latency collapses (Fig. 11).
  EXPECT_LT(cortex.metrics.MeanLatency(), vanilla.metrics.MeanLatency() / 2);
  // Remote traffic and cost collapse (Fig. 12, Table 5).
  EXPECT_LT(cortex.api_calls, vanilla.api_calls / 3);
  EXPECT_LT(cortex.api_cost, vanilla.api_cost / 3);
}

TEST(Integration, JudgerPreservesAccuracyWhereAnnOnlyDegrades) {
  // Low rate so rate limiting does not confound accuracy (Fig. 13 setup).
  const auto bundle = SmallSearchBundle(400);
  const auto vanilla = Serve("vanilla", bundle, 0.6, Rate(0.8));
  const auto cortex = Serve("cortex", bundle, 0.6, Rate(0.8));
  const auto ann_only = Serve("ann-only", bundle, 0.6, Rate(0.8));

  // Cortex matches the no-cache baseline.
  EXPECT_NEAR(cortex.metrics.Accuracy(), vanilla.metrics.Accuracy(), 0.03);
  // The ablation serves wrong answers.
  EXPECT_LT(ann_only.metrics.Accuracy(), vanilla.metrics.Accuracy() - 0.03);
}

TEST(Integration, HitRateGrowsWithCacheRatio) {
  const auto bundle = SmallSearchBundle();
  double prev = -1.0;
  for (const double ratio : {0.1, 0.4, 0.8}) {
    const auto r = Serve("cortex", bundle, ratio, Rate(2.0));
    EXPECT_GT(r.metrics.CacheHitRate(), prev) << "ratio " << ratio;
    prev = r.metrics.CacheHitRate() - 0.02;  // small tolerance for noise
  }
}

TEST(Integration, RateLimitDominatesBaselineUnderLoad) {
  const auto bundle = SmallSearchBundle();
  // Offered load far above the 100/min quota.
  const auto vanilla = Serve("vanilla", bundle, 0.5, Rate(6.0));
  // The baseline plateaus near quota/calls-per-task (paper Fig. 10).
  EXPECT_LT(vanilla.metrics.Throughput(), 1.5);
  EXPECT_GT(vanilla.metrics.RetryRatio(), 0.2);
}

TEST(Integration, TrendWorkloadSustainsHighHitRate) {
  TrendProfile profile;
  profile.duration_sec = 240.0;
  const auto bundle = BuildTrendWorkload(profile);
  DriverOptions opts;
  opts.explicit_arrivals = bundle.arrivals;
  const auto cortex = Serve("cortex", bundle, 0.3, opts);
  EXPECT_GT(cortex.metrics.CacheHitRate(), 0.7);  // Fig. 8's ~95% at scale
}

TEST(Integration, SweBenchGainsAreModestButReal) {
  SweBenchProfile profile;
  profile.num_issues = 150;
  const auto bundle = BuildSweBenchWorkload(profile);
  DriverOptions opts;
  opts.arrival = DriverOptions::Arrival::kClosedLoop;
  opts.concurrency = 6;
  const auto service = RemoteDataService::SelfHostedRag();
  const auto vanilla = Serve("vanilla", bundle, 0.4, opts, service);
  const auto cortex = Serve("cortex", bundle, 0.4, opts, service);
  // Fig. 9's shape: ~45% hit rate, single-digit-to-20% throughput gain.
  EXPECT_GT(cortex.metrics.CacheHitRate(), 0.3);
  EXPECT_LT(cortex.metrics.CacheHitRate(), 0.75);
  EXPECT_GE(cortex.metrics.Throughput(),
            0.98 * vanilla.metrics.Throughput());
}

TEST(Integration, RunsAreDeterministic) {
  const auto bundle = SmallSearchBundle(150);
  const auto a = Serve("cortex", bundle, 0.4, Rate(2.0));
  const auto b = Serve("cortex", bundle, 0.4, Rate(2.0));
  EXPECT_DOUBLE_EQ(a.metrics.Throughput(), b.metrics.Throughput());
  EXPECT_DOUBLE_EQ(a.metrics.CacheHitRate(), b.metrics.CacheHitRate());
  EXPECT_DOUBLE_EQ(a.metrics.Accuracy(), b.metrics.Accuracy());
  EXPECT_EQ(a.api_calls, b.api_calls);
}

TEST(Integration, ColocationCostsLittleThroughput) {
  // Table 7's shape: co-located MPS 80/20 retains most of the dedicated
  // two-GPU throughput.
  const auto bundle = SmallSearchBundle(250);
  auto serve_with = [&](DeploymentConfig cfg) {
    HashedEmbedder embedder;
    JudgerModel judger(bundle.oracle.get());
    AgentModel agent;
    ColocationSimulator gpu(cfg);
    RemoteDataService service(RemoteDataService::GoogleSearchApi());
    serve::ConcurrentEngineOptions opts;
    opts.cache.capacity_tokens = 0.6 * bundle.TotalKnowledgeTokens();
    opts.recalibration_interval_sec = 60.0;
    ResolverEnvironment env{&gpu, &service, bundle.oracle.get()};
    CortexResolver resolver(env, &embedder, &judger, std::move(opts));
    ServingDriver driver(agent, gpu, resolver, Rate(3.0));
    return driver.Run(bundle.tasks);
  };
  const auto colocated = serve_with(DeploymentConfig::Colocated80_20());
  const auto dedicated = serve_with(DeploymentConfig::DedicatedTwoGpu());
  EXPECT_GT(colocated.Throughput(), 0.85 * dedicated.Throughput());
}

}  // namespace
}  // namespace cortex
