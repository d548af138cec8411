// ANN-substrate ablations called out in DESIGN.md:
//   * index family comparison (Flat vs IVF vs HNSW): recall@k, distance
//     computations, and end-to-end cache hit rate when each backs Sine;
//   * tau_sim sweep: the §4.2 trade-off between stage-1 recall and stage-2
//     judger workload.
//
// Flags:
//   --json   also write BENCH_ann.json (the deterministic recall/work
//            ablation rows) for the CI bench-diff flywheel
#include <chrono>
#include <fstream>
#include <iostream>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/ivf_index.h"
#include "bench_common.h"
#include "embedding/simd_kernels.h"
#include "util/flags.h"
#include "util/table.h"

using namespace cortex;
using namespace cortex::bench;

namespace {

struct Backend {
  IndexType type;
  const char* name;
};
constexpr Backend kBackends[] = {{IndexType::kFlat, "flat"},
                                 {IndexType::kIvf, "ivf"},
                                 {IndexType::kHnsw, "hnsw"}};

// Queries/sec over repeated sweeps of `queries` until ~`min_ms` of wall
// time; also collects the top-5 id stream for cross-variant comparison.
double QueriesPerSec(const VectorIndex& idx, const std::vector<Vector>& queries,
                     double min_ms, std::vector<VectorId>& topk_ids) {
  topk_ids.clear();
  for (const auto& q : queries) {
    for (const auto& r : idx.Search(q, 5, -1.0)) topk_ids.push_back(r.id);
  }
  const auto start = std::chrono::steady_clock::now();
  std::size_t done = 0;
  double elapsed = 0.0;
  do {
    for (const auto& q : queries) {
      if (idx.Search(q, 5, -1.0).empty()) std::abort();  // keep the work live
    }
    done += queries.size();
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_ms / 1e3);
  return static_cast<double>(done) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool csv = flags.GetBool("csv", false);

  std::cout << "kernel variant: " << simd::VariantName(simd::ActiveVariant())
            << " (pin with CORTEX_SIMD=scalar|avx2|neon)\n\n";

  // --- Recall/work comparison on embedded workload queries ---
  std::cout << "=== ANN index ablation: recall@5 vs distance computations"
               " ===\n";
  auto profile = SearchDatasetProfile::HotpotQa();
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);
  HashedEmbedder embedder;

  // Corpus: one embedding per topic (first paraphrase); queries: another
  // paraphrase of each topic.
  std::vector<Vector> corpus, queries;
  for (const auto& t : bundle.universe->topics()) {
    corpus.push_back(embedder.Embed(t.paraphrases[0]));
    queries.push_back(embedder.Embed(t.paraphrases[3]));
  }

  FlatIndex truth(embedder.dimension());
  for (std::size_t i = 0; i < corpus.size(); ++i) truth.Add(i, corpus[i]);

  struct AblationRow {
    const char* index;
    double recall, comps, self_hit;
  };
  std::vector<AblationRow> ablation_rows;
  TextTable ann_table({"index", "recall@5 vs flat", "dist comps / query",
                       "self-hit rate"});
  for (const auto& [type, name] : kBackends) {
    auto idx = MakeIndex(type, embedder.dimension());
    for (std::size_t i = 0; i < corpus.size(); ++i) idx->Add(i, corpus[i]);
    int found = 0, total = 0, self_hits = 0;
    const auto comps_before = idx->distance_computations();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto exact = truth.Search(queries[i], 5, -1.0);
      const auto approx = idx->Search(queries[i], 5, -1.0);
      for (const auto& e : exact) {
        ++total;
        for (const auto& a : approx) {
          if (a.id == e.id) {
            ++found;
            break;
          }
        }
      }
      if (!approx.empty() && approx[0].id == i) ++self_hits;
    }
    const double comps =
        static_cast<double>(idx->distance_computations() - comps_before) /
        static_cast<double>(queries.size());
    ablation_rows.push_back({name, static_cast<double>(found) / total, comps,
                             static_cast<double>(self_hits) /
                                 static_cast<double>(queries.size())});
    ann_table.AddRow({name,
                      TextTable::Percent(static_cast<double>(found) / total),
                      TextTable::Num(comps, 0),
                      TextTable::Percent(static_cast<double>(self_hits) /
                                         queries.size())});
  }
  ann_table.Print(std::cout, csv);
  std::cout << '\n';

  // Deterministic rows only — recall and distance-computation counts are
  // machine-independent, so the baseline diffs tightly in CI.
  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_ann.json");
    out << "{\n  \"benchmark\": \"ann_ablation\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < ablation_rows.size(); ++i) {
      const auto& r = ablation_rows[i];
      out << "    {\"index\": \"" << r.index << "\", \"recall_at_5\": "
          << r.recall << ", \"dist_comps_per_query\": " << r.comps
          << ", \"self_hit_rate\": " << r.self_hit << "}"
          << (i + 1 < ablation_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote BENCH_ann.json\n";
  }

  // --- Kernel dispatch A/B: scan/probe throughput, scalar vs native ---
  // Same index, same queries, only the kernel variant differs.  Top-k ids
  // must be identical — the SIMD kernels change speed, not answers.
  std::cout << "=== Kernel dispatch A/B (scalar vs "
            << simd::VariantName(simd::ActiveVariant()) << ") ===\n";
  const auto native = simd::ActiveVariant();
  TextTable ab({"index", "scalar q/s", "native q/s", "speedup",
                "top-k identical"});
  for (const auto& [type, name] : kBackends) {
    auto idx = MakeIndex(type, embedder.dimension());
    for (std::size_t i = 0; i < corpus.size(); ++i) idx->Add(i, corpus[i]);
    std::vector<VectorId> scalar_ids, native_ids;
    simd::ForceVariant(simd::Variant::kScalar);
    const double scalar_qps = QueriesPerSec(*idx, queries, 150.0, scalar_ids);
    simd::ForceVariant(native);
    const double native_qps = QueriesPerSec(*idx, queries, 150.0, native_ids);
    ab.AddRow({name, TextTable::Num(scalar_qps, 0),
               TextTable::Num(native_qps, 0),
               TextTable::Num(native_qps / scalar_qps, 2) + "x",
               scalar_ids == native_ids ? "yes" : "NO"});
  }
  ab.Print(std::cout, csv);
  std::cout << '\n';

  // --- End-to-end: each index type backing the full engine ---
  std::cout << "=== End-to-end hit rate by index backend ===\n";
  auto small = SearchDatasetProfile::HotpotQa();
  small.num_tasks = 600;
  const WorkloadBundle e2e = BuildSkewedSearchWorkload(small);
  TextTable backend({"index", "throughput (req/s)", "hit rate",
                     "mean cache check (s)"});
  for (const auto& [type, name] : kBackends) {
    ExperimentConfig config;
    config.system = System::kCortex;
    config.cache_ratio = 0.5;
    config.engine.index_type = type;
    config.driver = OpenLoop(3.0);
    const auto r = RunExperiment(e2e, config);
    backend.AddRow({name, TextTable::Num(r.metrics.Throughput()),
                    TextTable::Percent(r.metrics.CacheHitRate()),
                    TextTable::Num(r.metrics.MeanCacheCheckSeconds(), 3)});
  }
  backend.Print(std::cout, csv);
  std::cout << '\n';

  // --- tau_sim sweep: stage-1 recall vs judger workload (§4.2) ---
  std::cout << "=== tau_sim sweep: candidate recall vs judger load ===\n";
  TextTable sweep({"tau_sim", "hit rate", "judger calls / lookup",
                   "accuracy"});
  for (const double tau : {0.25, 0.38, 0.5, 0.62, 0.75}) {
    ExperimentConfig config;
    config.system = System::kCortex;
    config.cache_ratio = 0.5;
    config.engine.cache.sine.tau_sim = tau;
    config.driver = OpenLoop(1.5);
    // Count judger calls through the recalibrator-free engine telemetry:
    // approximate via cache-check time is indirect, so re-measure directly.
    HashedEmbedder emb;
    JudgerModel judger(e2e.oracle.get());
    CortexEngineOptions opts = config.engine;
    opts.cache.capacity_tokens = 0.5 * e2e.TotalKnowledgeTokens();
    opts.recalibration_enabled = false;
    CortexEngine engine(&emb, &judger, opts);
    std::size_t judger_calls = 0, lookups = 0, hits = 0, wrong = 0;
    double now = 0.0;
    for (const auto& task : e2e.tasks) {
      for (const auto& step : task.steps) {
        now += 0.4;
        ++lookups;
        auto out = engine.Lookup(step.query, now);
        judger_calls += out.cache.sine.judger_calls;
        if (out.cache.hit) {
          ++hits;
          if (!e2e.oracle->InfoCorrect(step.query, out.cache.hit->value)) {
            ++wrong;
          }
        } else {
          engine.InsertFetched(step.query, step.expected_info,
                               std::move(out.cache.query_embedding), 0.4,
                               0.005, now);
        }
      }
    }
    sweep.AddRow({TextTable::Num(tau, 2),
                  TextTable::Percent(static_cast<double>(hits) / lookups),
                  TextTable::Num(static_cast<double>(judger_calls) / lookups,
                                 2),
                  TextTable::Percent(
                      hits ? 1.0 - static_cast<double>(wrong) / hits : 1.0)});
  }
  sweep.Print(std::cout, csv);
  std::cout << "(lower tau_sim: more candidates reach the judger — higher"
               " recall, more validation work; higher tau_sim discards"
               " correct matches early)\n";
  return 0;
}
