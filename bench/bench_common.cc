#include "bench_common.h"

#include <ostream>

namespace cortex::bench {

std::string SystemName(System system) {
  switch (system) {
    case System::kVanilla: return "Agent_vanilla";
    case System::kExact: return "Agent_exact";
    case System::kAnnOnly: return "Agent_ANN";
    case System::kCortex: return "Agent_Cortex";
  }
  return "?";
}

serve::ConcurrentEngineOptions PaperEngineOptions() {
  serve::ConcurrentEngineOptions options;
  options.recalibration_interval_sec = 60.0;
  return options;
}

void WriteRunCounts(std::ostream& out, const ExperimentResult& result) {
  const RunMetrics& m = result.metrics;
  out << "\"lookups\": " << m.total_tool_calls()
      << ", \"hits\": " << m.total_cache_hits()
      << ", \"wrong_hits\": " << m.total_wrong_hits()
      << ", \"api_calls\": " << result.api_calls
      << ", \"evictions\": " << result.evictions
      << ", \"hit_rate\": " << m.CacheHitRate();
}

ReplayCounts ReplayThroughEngine(const WorkloadBundle& bundle,
                                 const JudgerModel& judger,
                                 serve::ConcurrentEngineOptions options) {
  HashedEmbedder embedder;
  embedder.FitIdf(bundle.AllQueries());
  double now = 0.0;
  options.num_shards = 1;
  options.clock = [&now] { return now; };
  options.housekeeping_interval_sec = 0.0;
  serve::ConcurrentShardedEngine engine(&embedder, &judger,
                                        std::move(options));
  ReplayCounts counts;
  for (const auto& task : bundle.tasks) {
    for (const auto& step : task.steps) {
      now += 0.4;
      ++counts.lookups;
      serve::LookupDetail lookup;
      const auto hit = engine.Lookup(step.query, nullptr, {}, &lookup);
      counts.judger_calls += lookup.probe.sine.judger_calls;
      if (hit) {
        ++counts.hits;
        if (!bundle.oracle->InfoCorrect(step.query, hit->value)) {
          ++counts.wrong_hits;
        }
      } else {
        InsertRequest admit =
            FetchedInsert(&judger, step.query, step.expected_info, 0.4, 0.005,
                          /*initial_frequency=*/1);
        admit.embedding = std::move(lookup.probe.query_embedding);
        engine.Insert(std::move(admit));
      }
    }
  }
  return counts;
}

DriverOptions OpenLoop(double rate) {
  DriverOptions opts;
  opts.arrival = DriverOptions::Arrival::kOpenLoop;
  opts.request_rate = rate;
  return opts;
}

DriverOptions ClosedLoop(std::size_t concurrency) {
  DriverOptions opts;
  opts.arrival = DriverOptions::Arrival::kClosedLoop;
  opts.concurrency = concurrency;
  return opts;
}

ExperimentResult RunExperiment(const WorkloadBundle& bundle,
                               const ExperimentConfig& config) {
  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());
  AgentModel agent;
  const DeploymentConfig gpu_config = config.gpu.value_or(
      config.system == System::kVanilla || config.system == System::kExact
          ? DeploymentConfig::AgentOnly()
          : DeploymentConfig::Colocated80_20());
  ColocationSimulator gpu(gpu_config);
  RemoteDataService service(config.service);

  const double capacity =
      std::max(1.0, config.cache_ratio * bundle.TotalKnowledgeTokens());
  ResolverEnvironment env{&gpu, &service, bundle.oracle.get()};

  std::unique_ptr<ToolResolver> resolver;
  CortexResolver* cortex_resolver = nullptr;
  switch (config.system) {
    case System::kVanilla:
      resolver = std::make_unique<VanillaResolver>(env);
      break;
    case System::kExact:
      resolver = std::make_unique<ExactCacheResolver>(
          env, ExactCacheOptions{.capacity_tokens = capacity});
      break;
    case System::kAnnOnly:
    case System::kCortex: {
      serve::ConcurrentEngineOptions opts = config.engine;
      opts.cache.capacity_tokens = capacity;
      opts.cache.sine.use_judger = config.system == System::kCortex;
      auto r = std::make_unique<CortexResolver>(env, &embedder, &judger,
                                                std::move(opts),
                                                config.resolver);
      cortex_resolver = r.get();
      resolver = std::move(r);
      break;
    }
  }

  DriverOptions driver_opts = config.driver;
  if (!bundle.arrivals.empty() && driver_opts.explicit_arrivals.empty()) {
    driver_opts.explicit_arrivals = bundle.arrivals;
  }

  ServingDriver driver(agent, gpu, *resolver, driver_opts);
  ExperimentResult result;
  result.metrics = driver.Run(bundle.tasks);

  result.api_calls = service.total_calls();
  result.api_retries = service.total_retries();
  result.api_cost_dollars = service.total_cost_dollars();
  result.retry_ratio = service.RetryRatio();
  result.num_gpus = gpu.NumGpus();
  result.wallclock_sec =
      result.metrics.last_completion() - result.metrics.first_arrival();
  result.gpu_cost_dollars = result.wallclock_sec / 3600.0 *
                            kGpuDollarsPerHour *
                            static_cast<double>(result.num_gpus);
  if (cortex_resolver != nullptr) {
    const serve::ConcurrentShardedEngine& engine = cortex_resolver->engine();
    const CacheCounters counters = engine.TotalCounters();
    result.prefetches = cortex_resolver->prefetch_issued();
    result.recalibrations = cortex_resolver->recalibration_rounds();
    result.evictions = counters.evictions;
    result.expirations = counters.expirations;
    result.final_tau_lsm = engine.tau_lsm(0);
  }
  return result;
}

}  // namespace cortex::bench
