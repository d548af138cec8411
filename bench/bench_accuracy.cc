// Figure 13: generation quality (Exact-Match accuracy) with and without
// caching.  The naive similarity-only cache (Agent_ANN) degrades accuracy;
// the full system with the semantic judger matches the non-cached baseline.
//
//   --json   also write BENCH_accuracy.json (per-run counts and correct
//            answers) for the CI bench-diff
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
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 800));

  std::cout << "=== Figure 13: EM accuracy — Agent_vanilla vs Agent_Cortex"
               " vs Agent_ANN (no judger) ===\n\n";

  // Low offered load so correctness is not confounded by rate limiting.
  const DriverOptions low_load = OpenLoop(0.8);

  std::vector<SearchDatasetProfile> profiles =
      SearchDatasetProfile::AllFigure7();
  profiles.push_back(SearchDatasetProfile::StrategyQa());

  TextTable table({"dataset", "Agent_vanilla", "Agent_Cortex",
                   "Agent_ANN (no judger)", "hit rate (Cortex)",
                   "hit rate (ANN)"});
  std::ostringstream runs;
  for (auto profile : profiles) {
    profile.num_tasks = tasks;
    const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);
    double accuracy[3] = {0, 0, 0};
    double hits[3] = {0, 0, 0};
    const System systems[3] = {System::kVanilla, System::kCortex,
                               System::kAnnOnly};
    for (int i = 0; i < 3; ++i) {
      ExperimentConfig config;
      config.system = systems[i];
      config.cache_ratio = 0.6;
      config.driver = low_load;
      const auto r = RunExperiment(bundle, config);
      std::size_t correct = 0;
      for (const auto& record : r.metrics.records()) {
        correct += record.answer_correct ? 1 : 0;
      }
      runs << (runs.tellp() > 0 ? ",\n" : "") << "    {\"dataset\": \""
           << bundle.name << "\", \"system\": \"" << SystemName(systems[i])
           << "\", \"answers\": " << r.metrics.completed_tasks()
           << ", \"correct_answers\": " << correct << ", ";
      WriteRunCounts(runs, r);
      runs << "}";
      accuracy[i] = r.metrics.Accuracy();
      hits[i] = r.metrics.CacheHitRate();
    }
    table.AddRow({bundle.name, TextTable::Num(accuracy[0], 3),
                  TextTable::Num(accuracy[1], 3),
                  TextTable::Num(accuracy[2], 3),
                  TextTable::Percent(hits[1]), TextTable::Percent(hits[2])});
  }
  table.Print(std::cout, csv);
  std::cout << "\npaper shape: Agent_Cortex matches Agent_vanilla on every"
               " dataset; the judger-less ablation drops (e.g. StrategyQA"
               " 0.69 vs 0.79) because vector similarity returns related"
               " but wrong results.\n";

  if (json) {
    std::ofstream out("BENCH_accuracy.json");
    out << "{\n  \"benchmark\": \"accuracy\",\n  \"tasks\": " << tasks
        << ",\n  \"results\": [\n" << runs.str() << "\n  ]\n}\n";
    std::cout << "wrote BENCH_accuracy.json\n";
  }
  return 0;
}
