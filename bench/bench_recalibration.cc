// §6.7 recalibration overhead: throughput with vs without periodic
// threshold recalibration (paper: ~2% cost), plus a P_target sweep showing
// the precision/hit-rate lever and behaviour under judger drift.
#include <iostream>

#include "bench_common.h"
#include "embedding/hashed_embedder.h"
#include "util/flags.h"
#include "util/table.h"

using namespace cortex;
using namespace cortex::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool csv = flags.GetBool("csv", false);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 1000));

  auto profile = SearchDatasetProfile::HotpotQa();
  profile.num_tasks = tasks;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  std::cout << "=== §6.7: recalibration overhead (HotpotQA) ===\n\n";
  TextTable overhead({"configuration", "throughput (req/s)", "hit rate",
                      "accuracy", "rounds", "final tau_lsm"});
  double with_recal = 0.0, without_recal = 0.0;
  for (const bool enabled : {true, false}) {
    ExperimentConfig config;
    config.system = System::kCortex;
    config.cache_ratio = 0.4;
    config.engine.recalibration_interval_sec = enabled ? 30.0 : 0.0;
    // Larger per-round samples keep the precision curve from whipsawing on
    // a couple of labels.
    config.engine.recalibration.samples_per_round = 10;
    // Closed loop without a hard quota: recalibration's cost is the extra
    // GPU work and ground-truth fetch latency, not stolen quota tokens —
    // the regime where the paper measures its ~2%.
    config.driver = ClosedLoop(8);
    config.service = RemoteDataService::GoogleSearchApi();
    config.service.rate_limit_per_min = -1.0;
    const auto r = RunExperiment(bundle, config);
    (enabled ? with_recal : without_recal) = r.metrics.Throughput();
    overhead.AddRow({enabled ? "with recalibration" : "without",
                     TextTable::Num(r.metrics.Throughput()),
                     TextTable::Percent(r.metrics.CacheHitRate()),
                     TextTable::Percent(r.metrics.Accuracy()),
                     std::to_string(r.recalibrations),
                     TextTable::Num(r.final_tau_lsm, 3)});
  }
  overhead.Print(std::cout, csv);
  std::cout << "net throughput effect: "
            << TextTable::Percent(with_recal / without_recal - 1.0)
            << " (paper reports a bounded ~2% cost; the net sign depends on"
               " whether the recalibrated threshold recovers more hits than"
               " the GT fetches and validation scoring consume)\n\n";

  std::cout << "=== Ablation: target precision sweep ===\n";
  TextTable sweep({"P_target", "hit rate", "accuracy", "final tau_lsm"});
  for (const double target : {0.90, 0.97, 0.995, 0.999}) {
    ExperimentConfig config;
    config.system = System::kCortex;
    config.cache_ratio = 0.4;
    config.engine.recalibration.target_precision = target;
    config.engine.recalibration_interval_sec = 20.0;
    config.driver = OpenLoop(1.5);  // lighter load for clean accuracy
    const auto r = RunExperiment(bundle, config);
    sweep.AddRow({TextTable::Num(target, 3),
                  TextTable::Percent(r.metrics.CacheHitRate()),
                  TextTable::Percent(r.metrics.Accuracy()),
                  TextTable::Num(r.final_tau_lsm, 3)});
  }
  sweep.Print(std::cout, csv);
  std::cout << "(stricter targets push tau_lsm up: fewer hits, fewer false"
               " positives — Algorithm 1's dial)\n\n";

  // --- Ablation: judger fine-tuning on the annotated set (§5) ---
  std::cout << "=== Ablation: judger fine-tuning on the annotated set ===\n";
  auto trapy = SearchDatasetProfile::StrategyQa();  // highest trap fraction
  trapy.num_tasks = tasks;
  const WorkloadBundle fb = BuildSkewedSearchWorkload(trapy);
  TextTable ft({"judger", "hit rate", "false hits / hits",
                "judger separation (mu+ - mu-)"});
  for (const bool finetuned : {false, true}) {
    JudgerModel judger(fb.oracle.get());
    if (finetuned) judger.Finetune(5000);  // paper: tune on annotations
    serve::ConcurrentEngineOptions opts;
    opts.cache.capacity_tokens = 0.5 * fb.TotalKnowledgeTokens();
    const ReplayCounts r = ReplayThroughEngine(fb, judger, std::move(opts));
    const std::size_t hits = r.hits, wrong = r.wrong_hits,
                      lookups = r.lookups;
    ft.AddRow({finetuned ? "fine-tuned" : "base",
               TextTable::Percent(static_cast<double>(hits) / lookups),
               TextTable::Percent(hits ? static_cast<double>(wrong) / hits
                                       : 0.0,
                                  2),
               TextTable::Num(judger.options().mu_equivalent -
                                  judger.options().mu_different,
                              2)});
  }
  ft.Print(std::cout, csv);
  std::cout << "(a tuned judger widens its margins: fewer false accepts AND"
               " fewer false rejects — the paper's pluggable-judger"
               " argument)\n";
  return 0;
}
