// Google-benchmark microbenchmarks for the hot data-plane operations: text
// embedding, ANN search across index families and sizes, the two-stage
// Sine lookup, and cache insert/evict.  These bound the real CPU cost of a
// cache check, complementing the simulated latencies used in the
// system-level benches.
#include <benchmark/benchmark.h>

#include <sstream>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/ivf_index.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "embedding/hashed_embedder.h"
#include "workload/workloads.h"

namespace cortex {
namespace {

const WorkloadBundle& SharedBundle() {
  static const WorkloadBundle bundle = [] {
    auto profile = SearchDatasetProfile::HotpotQa();
    profile.num_tasks = 200;
    return BuildSkewedSearchWorkload(profile);
  }();
  return bundle;
}

void BM_EmbedQuery(benchmark::State& state) {
  const auto& bundle = SharedBundle();
  HashedEmbedder embedder;
  std::size_t i = 0;
  const auto& topics = bundle.universe->topics();
  for (auto _ : state) {
    const auto& t = topics[i++ % topics.size()];
    benchmark::DoNotOptimize(embedder.Embed(t.paraphrases[0]));
  }
}
BENCHMARK(BM_EmbedQuery);

template <typename IndexT>
std::unique_ptr<VectorIndex> MakeSized(std::size_t dim) {
  return std::make_unique<IndexT>(dim);
}

void RunSearchBench(benchmark::State& state,
                    std::unique_ptr<VectorIndex> index) {
  HashedEmbedder embedder;
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(embedder.dimension());
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    Normalize(v);
    index->Add(i, v);
  }
  Vector q(embedder.dimension());
  for (auto& x : q) x = static_cast<float>(rng.Normal());
  Normalize(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(q, 6, 0.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_FlatSearch(benchmark::State& state) {
  RunSearchBench(state, MakeSized<FlatIndex>(256));
}
void BM_IvfSearch(benchmark::State& state) {
  RunSearchBench(state, std::make_unique<IvfIndex>(256));
}
void BM_HnswSearch(benchmark::State& state) {
  RunSearchBench(state, std::make_unique<HnswIndex>(256));
}
BENCHMARK(BM_FlatSearch)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_IvfSearch)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_HnswSearch)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EngineLookupHit(benchmark::State& state) {
  const auto& bundle = SharedBundle();
  HashedEmbedder embedder;
  JudgerModel judger(bundle.oracle.get());
  CortexEngineOptions opts;
  opts.cache.capacity_tokens = 1e9;
  opts.recalibration_enabled = false;
  CortexEngine engine(&embedder, &judger, opts);
  double now = 0.0;
  for (const auto& t : bundle.universe->topics()) {
    engine.InsertFetched(t.paraphrases[0], t.answer, std::nullopt, 0.4,
                         0.005, now += 1.0);
  }
  std::size_t i = 0;
  const auto& topics = bundle.universe->topics();
  for (auto _ : state) {
    const auto& t = topics[i++ % topics.size()];
    benchmark::DoNotOptimize(
        engine.Lookup(t.paraphrases[2], now += 1.0));
  }
}
BENCHMARK(BM_EngineLookupHit);

void BM_CacheInsertWithEviction(benchmark::State& state) {
  const auto& bundle = SharedBundle();
  HashedEmbedder embedder;
  JudgerModel judger(bundle.oracle.get());
  CortexEngineOptions opts;
  // Tight capacity: every insert evicts.
  opts.cache.capacity_tokens = 0.1 * bundle.TotalKnowledgeTokens();
  opts.recalibration_enabled = false;
  opts.prefetch_enabled = false;
  CortexEngine engine(&embedder, &judger, opts);
  double now = 0.0;
  std::size_t i = 0;
  const auto& topics = bundle.universe->topics();
  for (auto _ : state) {
    const auto& t = topics[i++ % topics.size()];
    benchmark::DoNotOptimize(engine.InsertFetched(
        t.paraphrases[i % t.paraphrases.size()], t.answer, std::nullopt,
        0.4, 0.005, now += 1.0));
  }
}
BENCHMARK(BM_CacheInsertWithEviction);

void BM_JudgerScore(benchmark::State& state) {
  const auto& bundle = SharedBundle();
  JudgerModel judger(bundle.oracle.get());
  const auto& topics = bundle.universe->topics();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = topics[i % topics.size()];
    const auto& b = topics[(i + 1) % topics.size()];
    ++i;
    JudgeRequest req{a.paraphrases[0], b.paraphrases[0], b.answer, 0.7};
    benchmark::DoNotOptimize(judger.Judge(req));
  }
}
BENCHMARK(BM_JudgerScore);

void BM_SnapshotSaveLoad(benchmark::State& state) {
  const auto& bundle = SharedBundle();
  HashedEmbedder embedder;
  JudgerModel judger(bundle.oracle.get());
  SemanticCacheOptions opts;
  opts.capacity_tokens = 1e9;
  SemanticCache cache(&embedder,
                      std::make_unique<FlatIndex>(embedder.dimension()),
                      &judger, std::make_unique<LcfuPolicy>(), opts);
  double now = 0.0;
  for (const auto& t : bundle.universe->topics()) {
    InsertRequest req;
    req.key = t.paraphrases[0];
    req.value = t.answer;
    req.staticity = t.staticity;
    cache.Insert(std::move(req), now += 1.0);
  }
  for (auto _ : state) {
    std::stringstream stream;
    SaveCacheSnapshot(cache, stream, now);
    SemanticCache fresh(&embedder,
                        std::make_unique<FlatIndex>(embedder.dimension()),
                        &judger, std::make_unique<LcfuPolicy>(), opts);
    benchmark::DoNotOptimize(LoadCacheSnapshot(fresh, stream, now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cache.size()));
}
BENCHMARK(BM_SnapshotSaveLoad);

}  // namespace
}  // namespace cortex

BENCHMARK_MAIN();
