// Table 6: LCFU vs LRU vs LFU on the HotpotQA workload — LCFU trades a
// point or two of hit rate for better end-to-end throughput by preferring
// expensive-to-retrieve items.  Plus ablations the design section calls
// out: TTL on/off and the staticity term's role on the trend workload.
//
//   --json   also write BENCH_eviction.json (per-run counts) for the CI
//            bench-diff
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "util/flags.h"
#include "util/table.h"

using namespace cortex;
using namespace cortex::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool csv = flags.GetBool("csv", false);
  const bool json = flags.GetBool("json", false);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 1000));

  auto profile = SearchDatasetProfile::HotpotQa();
  profile.num_tasks = tasks;
  // Heterogeneous retrieval costs are what separate LCFU from LFU: a third
  // of the topics live behind a premium API that is markedly slower and
  // pricier, so the *value* of a cached byte varies widely.
  profile.universe.premium_fraction = 0.35;
  profile.universe.premium_cost_scale = 5.0;
  profile.universe.premium_latency_scale = 4.0;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  std::cout << "=== Table 6: eviction policy comparison (HotpotQA, cache"
               " ratio 0.3) ===\n\n";
  TextTable table({"Metric", "Agent_LRU", "Agent_LFU", "LCFU"});
  std::vector<ExperimentResult> results;
  for (const EvictionKind kind :
       {EvictionKind::kLru, EvictionKind::kLfu, EvictionKind::kLcfu}) {
    ExperimentConfig config;
    config.system = System::kCortex;
    config.cache_ratio = 0.3;
    config.engine.eviction = kind;
    // Closed loop with no hard quota: what LCFU optimises — time and money
    // saved per byte — translates directly into end-to-end latency and
    // throughput, instead of every miss costing one identical quota token.
    config.driver = ClosedLoop(8);
    config.service = RemoteDataService::GoogleSearchApi();
    config.service.rate_limit_per_min = -1.0;
    results.push_back(RunExperiment(bundle, config));
  }
  auto row = [&](const std::string& metric, auto getter, int precision) {
    std::vector<std::string> cells = {metric};
    for (const auto& r : results) {
      cells.push_back(TextTable::Num(getter(r), precision));
    }
    table.AddRow(cells);
  };
  row("Cache hit", [](const auto& r) { return r.metrics.CacheHitRate(); }, 2);
  row("Throughput (req/s)",
      [](const auto& r) { return r.metrics.Throughput(); }, 2);
  row("Mean latency (s)",
      [](const auto& r) { return r.metrics.MeanLatency(); }, 2);
  table.Print(std::cout, csv);
  // JSON sections, one object per run, joined at the end.
  std::ostringstream policies, ttl_runs, admission_runs;
  const char* const kPolicyNames[] = {"lru", "lfu", "lcfu"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    policies << (i ? ",\n" : "") << "    {\"policy\": \"" << kPolicyNames[i]
             << "\", ";
    WriteRunCounts(policies, results[i]);
    policies << ", \"throughput_rps\": " << results[i].metrics.Throughput()
             << ", \"mean_latency_seconds\": "
             << results[i].metrics.MeanLatency() << "}";
  }
  std::cout << "(paper: LFU hits 0.89 vs LCFU 0.86, yet LCFU delivers up to"
               " 9% higher throughput by retaining costly items)\n\n";

  // --- Ablation: TTL aging on the trend workload ---
  std::cout << "=== Ablation: TTL aging and staticity on the trend workload"
               " ===\n";
  TrendProfile trend;
  trend.duration_sec = 400.0;
  const WorkloadBundle trace = BuildTrendWorkload(trend);
  TextTable ttl_table({"configuration", "hit rate", "throughput (req/s)",
                       "expirations", "evictions"});
  for (const bool ttl_enabled : {true, false}) {
    ExperimentConfig config;
    config.system = System::kCortex;
    config.cache_ratio = 0.25;
    config.engine.cache.ttl_enabled = ttl_enabled;
    // Short TTLs relative to the compressed trace so aging is visible.
    config.engine.cache.min_ttl_sec = 60.0;
    config.engine.cache.max_ttl_sec = 1200.0;
    const auto r = RunExperiment(trace, config);
    ttl_runs << (ttl_enabled ? "" : ",\n") << "    {\"ttl\": \""
             << (ttl_enabled ? "on" : "off") << "\", ";
    WriteRunCounts(ttl_runs, r);
    ttl_runs << ", \"expirations\": " << r.expirations << "}";
    ttl_table.AddRow({ttl_enabled ? "TTL aging on" : "TTL aging off",
                      TextTable::Percent(r.metrics.CacheHitRate()),
                      TextTable::Num(r.metrics.Throughput()),
                      std::to_string(r.expirations),
                      std::to_string(r.evictions)});
  }
  ttl_table.Print(std::cout, csv);
  std::cout << "(TTL keeps ephemeral trend content from outstaying its"
               " validity; LCFU's staticity term already deprioritises it"
               " for eviction)\n\n";

  // --- Ablation: TinyLFU admission doorkeeper (DESIGN.md extension;
  //     answers §3.2's open admission question) ---
  std::cout << "=== Ablation: admission doorkeeper at small cache ratios"
               " ===\n";
  TextTable adm({"cache ratio", "doorkeeper", "hit rate",
                 "throughput (req/s)", "evictions"});
  for (const double ratio : {0.1, 0.2}) {
    for (const bool enabled : {false, true}) {
      ExperimentConfig config;
      config.system = System::kCortex;
      config.cache_ratio = ratio;
      config.engine.cache.admission_enabled = enabled;
      config.driver = ClosedLoop(8);
      config.service = RemoteDataService::GoogleSearchApi();
      config.service.rate_limit_per_min = -1.0;
      const auto r = RunExperiment(bundle, config);
      admission_runs << (admission_runs.tellp() > 0 ? ",\n" : "")
                     << "    {\"cache_ratio\": " << ratio
                     << ", \"doorkeeper\": \"" << (enabled ? "on" : "off")
                     << "\", ";
      WriteRunCounts(admission_runs, r);
      admission_runs << "}";
      adm.AddRow({TextTable::Num(ratio, 1), enabled ? "on" : "off",
                  TextTable::Percent(r.metrics.CacheHitRate()),
                  TextTable::Num(r.metrics.Throughput()),
                  std::to_string(r.evictions)});
    }
  }
  adm.Print(std::cout, csv);
  std::cout << "(under tight capacity the doorkeeper stops one-hit wonders"
               " from evicting proven content)\n";

  if (json) {
    std::ofstream out("BENCH_eviction.json");
    out << "{\n  \"benchmark\": \"eviction\",\n  \"tasks\": " << tasks
        << ",\n  \"policies\": [\n" << policies.str()
        << "\n  ],\n  \"ttl\": [\n" << ttl_runs.str()
        << "\n  ],\n  \"admission\": [\n" << admission_runs.str()
        << "\n  ]\n}\n";
    std::cout << "wrote BENCH_eviction.json\n";
  }
  return 0;
}
