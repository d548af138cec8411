// cortex_sim: config-driven experiment driver.
//
// Runs one serving experiment described by an INI config (see
// tools/configs/*.conf), printing a summary table and, when asked, CSV
// exports of per-task records and the latency CDF.  Command-line flags of
// the form --section.key=value override config entries, so sweeps are a
// shell loop away:
//
//   ./build/tools/cortex_driver tools/configs/musique_cortex.conf
//       --cache.ratio=0.6 --export.records=/tmp/records.csv
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "sim/trace_export.h"
#include "workload/trace_io.h"
#include "util/config.h"
#include "util/flags.h"
#include "util/table.h"

using namespace cortex;
using namespace cortex::bench;

namespace {

WorkloadBundle BuildWorkload(const Config& config) {
  const std::string type = config.GetString("workload.type", "skewed");
  if (type == "skewed") {
    const std::string dataset =
        config.GetString("workload.dataset", "hotpotqa");
    SearchDatasetProfile profile;
    if (dataset == "zilliz-gpt") profile = SearchDatasetProfile::ZillizGpt();
    else if (dataset == "hotpotqa") profile = SearchDatasetProfile::HotpotQa();
    else if (dataset == "musique") profile = SearchDatasetProfile::Musique();
    else if (dataset == "2wiki") profile = SearchDatasetProfile::TwoWiki();
    else if (dataset == "strategyqa") profile = SearchDatasetProfile::StrategyQa();
    else throw std::invalid_argument("unknown workload.dataset: " + dataset);
    profile.num_tasks = static_cast<std::size_t>(
        config.GetInt("workload.tasks", 1000));
    profile.zipf_exponent =
        config.GetDouble("workload.zipf", profile.zipf_exponent);
    profile.universe.num_topics = static_cast<std::size_t>(config.GetInt(
        "workload.topics",
        static_cast<std::int64_t>(profile.universe.num_topics)));
    return BuildSkewedSearchWorkload(profile);
  }
  if (type == "trend") {
    TrendProfile profile;
    profile.duration_sec =
        config.GetDouble("workload.duration", profile.duration_sec);
    profile.peak_rate = config.GetDouble("workload.peak", profile.peak_rate);
    return BuildTrendWorkload(profile);
  }
  if (type == "swebench") {
    SweBenchProfile profile;
    profile.num_issues = static_cast<std::size_t>(
        config.GetInt("workload.issues", 300));
    return BuildSweBenchWorkload(profile);
  }
  if (type == "trace") {
    // Replay a frozen trace file (see [export] trace=... to record one).
    return LoadWorkloadTraceFile(config.GetString("workload.path"));
  }
  throw std::invalid_argument("unknown workload.type: " + type);
}

ExperimentConfig BuildExperiment(const Config& config) {
  ExperimentConfig experiment;

  const std::string system = config.GetString("system.kind", "cortex");
  if (system == "vanilla") experiment.system = System::kVanilla;
  else if (system == "exact") experiment.system = System::kExact;
  else if (system == "ann-only") experiment.system = System::kAnnOnly;
  else if (system == "cortex") experiment.system = System::kCortex;
  else throw std::invalid_argument("unknown system.kind: " + system);

  experiment.cache_ratio = config.GetDouble("cache.ratio", 0.4);
  experiment.resolver.prefetch_enabled =
      config.GetBool("cache.prefetch", true);
  if (!config.GetBool("cache.recalibration", true)) {
    experiment.engine.recalibration_interval_sec = 0.0;
  }
  EvictionKind& kind = experiment.engine.eviction;
  const std::string eviction = config.GetString("cache.eviction", "lcfu");
  if (eviction == "lcfu") kind = EvictionKind::kLcfu;
  else if (eviction == "lru") kind = EvictionKind::kLru;
  else if (eviction == "lfu") kind = EvictionKind::kLfu;
  else throw std::invalid_argument("unknown cache.eviction: " + eviction);
  experiment.engine.cache.sine.tau_sim =
      config.GetDouble("cache.tau_sim", experiment.engine.cache.sine.tau_sim);
  experiment.engine.cache.sine.tau_lsm =
      config.GetDouble("cache.tau_lsm", experiment.engine.cache.sine.tau_lsm);

  const std::string arrival = config.GetString("driver.arrival", "open");
  if (arrival == "open") {
    experiment.driver = OpenLoop(config.GetDouble("driver.rate", 2.0));
  } else if (arrival == "closed") {
    experiment.driver = ClosedLoop(static_cast<std::size_t>(
        config.GetInt("driver.concurrency", 8)));
  } else {
    throw std::invalid_argument("unknown driver.arrival: " + arrival);
  }

  const std::string service = config.GetString("service.kind", "google");
  if (service == "google") {
    experiment.service = RemoteDataService::GoogleSearchApi();
  } else if (service == "rag") {
    experiment.service = RemoteDataService::SelfHostedRag(
        config.GetBool("service.rate_limited", false));
  } else {
    throw std::invalid_argument("unknown service.kind: " + service);
  }
  if (config.Has("service.rate_limit_per_min")) {
    experiment.service.rate_limit_per_min =
        config.GetDouble("service.rate_limit_per_min", 100.0);
  }
  experiment.service.transient_failure_probability =
      config.GetDouble("service.failure_probability", 0.0);
  return experiment;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    if (flags.positional().empty()) {
      std::cerr << "usage: cortex_driver <config.conf> [--section.key=value ...]"
                << "\n";
      return 2;
    }
    Config config = Config::FromFile(flags.positional().front());
    // Command-line overrides: every --a.b=v flag lands in the config.
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) continue;
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) continue;
      config.Set(std::string(arg.substr(0, eq)),
                 std::string(arg.substr(eq + 1)));
    }

    const WorkloadBundle bundle = BuildWorkload(config);
    if (const auto path = config.GetString("export.trace"); !path.empty()) {
      SaveWorkloadTraceFile(bundle, path);
      std::cout << "froze workload trace to " << path << '\n';
    }
    const ExperimentConfig experiment = BuildExperiment(config);
    const ExperimentResult result = RunExperiment(bundle, experiment);

    TextTable table({"metric", "value"});
    table.AddRow({"workload", bundle.name});
    table.AddRow({"system", SystemName(experiment.system)});
    table.AddRow({"tasks", std::to_string(result.metrics.completed_tasks())});
    table.AddRow({"throughput (req/s)",
                  TextTable::Num(result.metrics.Throughput())});
    table.AddRow({"cache hit rate",
                  TextTable::Percent(result.metrics.CacheHitRate())});
    table.AddRow({"EM accuracy",
                  TextTable::Percent(result.metrics.Accuracy())});
    table.AddRow({"mean latency (s)",
                  TextTable::Num(result.metrics.MeanLatency(), 3)});
    table.AddRow({"p99 latency (s)",
                  TextTable::Num(result.metrics.P99Latency(), 3)});
    table.AddRow({"API calls", std::to_string(result.api_calls)});
    table.AddRow({"retry ratio", TextTable::Percent(result.retry_ratio)});
    table.AddRow({"API cost ($)", TextTable::Num(result.api_cost_dollars, 3)});
    table.AddRow({"prefetches", std::to_string(result.prefetches)});
    std::cout << table.Render();

    if (const auto path = config.GetString("export.records"); !path.empty()) {
      WriteTaskRecordsCsvFile(result.metrics, path);
      std::cout << "wrote per-task records to " << path << '\n';
    }
    if (const auto path = config.GetString("export.summary"); !path.empty()) {
      std::ofstream out(path, std::ios::app);
      WriteSummaryCsv(result.metrics, out,
                      bundle.name + "/" + SystemName(experiment.system),
                      /*include_header=*/out.tellp() == 0);
      std::cout << "appended summary to " << path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cortex_driver: " << e.what() << '\n';
    return 1;
  }
}
