// Sharded regional cache tier (the paper's Fig. 4 deployment has several
// agent applications sharing one Cortex tier), served by the engine
// cortexd runs.  Sweeps the shard count over one HotpotQA replay:
// IDF-anchored routing keeps paraphrases together, so the hit rate barely
// moves, while each lookup scans only its own shard's snapshot.
//
// The replay is single-threaded on a virtual clock with housekeeping off,
// and the i8 scan is followed by an exact fp32 rerank, so every count is
// deterministic across runs and SIMD variants; only the probe latency is
// machine-dependent.
//
// Flags:
//   --tasks N   replayed tasks (default 1000)
//   --json      also write BENCH_sharding.json for the CI bench-diff
//               flywheel
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "serve/concurrent_engine.h"
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

  std::cout << "=== Sharded cache tier: shard-count sweep (HotpotQA replay,"
               " cache ratio 0.5) ===\n\n";
  struct Row {
    std::size_t shards, lookups, hits, resident, stable_topics;
    double probe_p50_us;
  };
  std::vector<Row> rows;
  TextTable table({"shards", "hit rate", "probe p50 (us)", "resident SEs",
                   "shard-stable topics"});
  for (const std::size_t shards : {1, 2, 4, 8, 16}) {
    HashedEmbedder embedder;
    embedder.FitIdf(bundle.AllQueries());
    JudgerModel judger(bundle.oracle.get());
    double now = 0.0;
    serve::ConcurrentEngineOptions opts;
    opts.num_shards = shards;
    opts.cache.capacity_tokens = 0.5 * bundle.TotalKnowledgeTokens();
    opts.housekeeping_interval_sec = 0.0;
    opts.clock = [&now] { return now; };
    serve::ConcurrentShardedEngine engine(&embedder, &judger, opts);

    Row row{shards, 0, 0, 0, 0, 0.0};
    for (const auto& task : bundle.tasks) {
      for (const auto& step : task.steps) {
        now += 0.4;
        ++row.lookups;
        if (engine.Lookup(step.query)) {
          ++row.hits;
        } else {
          InsertRequest req;
          req.key = step.query;
          req.value = step.expected_info;
          req.staticity = bundle.oracle->Staticity(step.query);
          req.retrieval_latency_sec = 0.4;
          req.retrieval_cost_dollars = 0.005;
          req.initial_frequency = 1;
          engine.Insert(std::move(req));
        }
      }
    }
    row.resident = engine.TotalSize();
    row.probe_p50_us = engine.registry()
                           ->GetHistogram("cortex_engine_probe_seconds")
                           ->Snapshot()
                           .p50() *
                       1e6;

    // Routing stability: topics whose paraphrases all land on one shard.
    for (const auto& t : bundle.universe->topics()) {
      const auto anchor = engine.ShardFor(t.paraphrases[0]);
      bool all_same = true;
      for (const auto& q : t.paraphrases) {
        if (engine.ShardFor(q) != anchor) {
          all_same = false;
          break;
        }
      }
      if (all_same) ++row.stable_topics;
    }

    rows.push_back(row);
    table.AddRow(
        {std::to_string(shards),
         TextTable::Percent(static_cast<double>(row.hits) / row.lookups),
         TextTable::Num(row.probe_p50_us, 1), std::to_string(row.resident),
         TextTable::Percent(static_cast<double>(row.stable_topics) /
                            bundle.universe->size())});
  }
  table.Print(std::cout, csv);

  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_sharding.json");
    out << "{\n  \"benchmark\": \"sharding\",\n  \"tasks\": " << tasks
        << ",\n  \"topics\": " << bundle.universe->size()
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"shards\": " << r.shards << ", \"lookups\": " << r.lookups
          << ", \"hits\": " << r.hits << ", \"resident\": " << r.resident
          << ", \"stable_topics\": " << r.stable_topics
          << ", \"probe_latency_p50_us\": " << r.probe_p50_us << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote BENCH_sharding.json\n";
  }
  std::cout << "\n(the hit rate holds as long as routing keeps paraphrases"
               " together; each lookup scans one shard's share of the"
               " resident set)\n";
  return 0;
}
