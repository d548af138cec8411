// Shared experiment harness for the bench binaries: builds a serving stack
// (workload + GPU + remote service + resolver) for one of the paper's
// system configurations and runs it to completion on the virtual clock.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "embedding/hashed_embedder.h"
#include "serve/resolvers.h"
#include "sim/driver.h"
#include "workload/workloads.h"

namespace cortex::bench {

// The evaluated configurations (§6.1 "Baseline systems").
enum class System { kVanilla, kExact, kAnnOnly, kCortex };

std::string SystemName(System system);

// The engine the paper evaluates: default options, recalibrating every
// 60 s.
serve::ConcurrentEngineOptions PaperEngineOptions();

struct ExperimentConfig {
  System system = System::kCortex;
  // Cache capacity as a fraction of the workload's knowledge footprint.
  double cache_ratio = 0.4;
  DriverOptions driver;
  RemoteServiceOptions service = RemoteDataService::GoogleSearchApi();
  // Unset: vanilla/exact get the whole GPU (they run no judger); Cortex
  // variants default to the co-located MPS 80/20 deployment.
  std::optional<DeploymentConfig> gpu;
  // Tweaks applied on top of defaults (Cortex variants only).  The
  // engine's capacity is overwritten from cache_ratio and its judger switch
  // from `system`; a recalibration interval <= 0 disables recalibration.
  serve::ConcurrentEngineOptions engine = PaperEngineOptions();
  CortexResolverOptions resolver;
};

struct ExperimentResult {
  RunMetrics metrics;
  // Remote-service truth (includes background prefetch/recalibration calls).
  std::uint64_t api_calls = 0;
  std::uint64_t api_retries = 0;
  double api_cost_dollars = 0.0;
  double retry_ratio = 0.0;
  // GPU accounting.
  int num_gpus = 1;
  double wallclock_sec = 0.0;      // makespan of the run (virtual time)
  double gpu_cost_dollars = 0.0;   // wallclock x gpus x $/h
  // Engine telemetry (zero for baselines).
  std::uint64_t prefetches = 0;
  std::uint64_t recalibrations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  double final_tau_lsm = 0.0;

  double ThroughputPerDollar() const {
    const double total = api_cost_dollars + gpu_cost_dollars;
    return total > 0.0 ? metrics.Throughput() / total : 0.0;
  }
};

// Runs the bundle through the configured system.  Fresh components per call
// so runs never share state; everything is seeded, so results are
// deterministic.
ExperimentResult RunExperiment(const WorkloadBundle& bundle,
                               const ExperimentConfig& config);

// Replays every tool step of `bundle`, in task order, straight through a
// one-shard engine on a virtual clock (steps 0.4 s apart, no GPU or
// network model): each miss inserts the step's expected info as a
// demanded fetch.  The embedder is fitted on the bundle's queries; the
// engine's clock, shard count and housekeeping are overridden.
struct ReplayCounts {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t wrong_hits = 0;    // hits whose value the oracle rejects
  std::size_t judger_calls = 0;  // stage-2 validations over all lookups
};
ReplayCounts ReplayThroughEngine(const WorkloadBundle& bundle,
                                 const JudgerModel& judger,
                                 serve::ConcurrentEngineOptions options);

// Writes one run's counts as JSON object members (no braces): lookups,
// hits, wrong hits, API calls and evictions, plus the hit rate.  The
// counts replay deterministically, so bench_diff holds them to its tight
// band; hit_rate falls in the wide one.
void WriteRunCounts(std::ostream& out, const ExperimentResult& result);

// Convenience: open-loop driver at the given request rate.
DriverOptions OpenLoop(double rate);
// Convenience: closed-loop driver at the given concurrency.
DriverOptions ClosedLoop(std::size_t concurrency);

}  // namespace cortex::bench
