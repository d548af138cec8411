// Search agent walkthrough: serves a multi-hop Musique-style workload with
// the full Cortex engine and prints a deep-dive of what the cache did —
// two-stage retrieval telemetry, eviction/prefetch activity, threshold
// recalibration, and the per-request latency anatomy.
//
//   ./build/examples/search_agent [--tasks=600] [--ratio=0.5] [--rate=3]
#include <algorithm>
#include <iostream>

#include "embedding/hashed_embedder.h"
#include "serve/resolvers.h"
#include "sim/driver.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/workloads.h"

using namespace cortex;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto profile = SearchDatasetProfile::Musique();
  profile.num_tasks = static_cast<std::size_t>(flags.GetInt("tasks", 600));
  const double ratio = flags.GetDouble("ratio", 0.5);
  const double rate = flags.GetDouble("rate", 3.0);

  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());
  AgentModel agent;
  ColocationSimulator gpu(DeploymentConfig::Colocated80_20());
  RemoteDataService service(RemoteDataService::GoogleSearchApi());

  serve::ConcurrentEngineOptions opts;
  opts.cache.capacity_tokens = ratio * bundle.TotalKnowledgeTokens();
  opts.recalibration_interval_sec = 60.0;

  ResolverEnvironment env{&gpu, &service, bundle.oracle.get()};
  CortexResolver resolver(env, &embedder, &judger, std::move(opts));
  serve::ConcurrentShardedEngine& engine = resolver.engine();

  DriverOptions driver_opts;
  driver_opts.request_rate = rate;
  ServingDriver driver(agent, gpu, resolver, driver_opts);
  const RunMetrics metrics = driver.Run(bundle.tasks);

  std::cout << "=== serving summary (" << bundle.name << ") ===\n";
  TextTable summary({"metric", "value"});
  summary.AddRow({"tasks completed", std::to_string(metrics.completed_tasks())});
  summary.AddRow({"throughput (req/s)", TextTable::Num(metrics.Throughput())});
  summary.AddRow({"mean latency (s)", TextTable::Num(metrics.MeanLatency(), 3)});
  summary.AddRow({"p99 latency (s)", TextTable::Num(metrics.P99Latency(), 3)});
  summary.AddRow({"cache hit rate", TextTable::Percent(metrics.CacheHitRate())});
  summary.AddRow({"EM accuracy", TextTable::Percent(metrics.Accuracy())});
  summary.AddRow(
      {"mean agent inference (s)", TextTable::Num(metrics.MeanAgentSeconds(), 3)});
  summary.AddRow({"mean cache check (s)",
                  TextTable::Num(metrics.MeanCacheCheckSeconds(), 3)});
  summary.AddRow(
      {"mean remote fetch (s)", TextTable::Num(metrics.MeanToolSeconds(), 3)});
  std::cout << summary.Render() << '\n';

  std::cout << "=== cache engine internals ===\n";
  const CacheCounters c = engine.TotalCounters();
  TextTable internals({"counter", "value"});
  internals.AddRow({"lookups", std::to_string(c.lookups)});
  internals.AddRow({"semantic hits", std::to_string(c.hits)});
  internals.AddRow({"insertions", std::to_string(c.insertions)});
  internals.AddRow({"evictions (LCFU)", std::to_string(c.evictions)});
  internals.AddRow({"TTL expirations", std::to_string(c.expirations)});
  internals.AddRow({"resident SEs", std::to_string(engine.TotalSize())});
  internals.AddRow({"usage (tokens)",
                    TextTable::Num(engine.TotalUsageTokens(), 0) + " / " +
                        TextTable::Num(engine.per_shard_capacity_tokens(),
                                       0)});
  internals.AddRow({"prefetches issued",
                    std::to_string(resolver.prefetch_issued())});
  internals.AddRow({"recalibration rounds",
                    std::to_string(resolver.recalibration_rounds())});
  internals.AddRow({"live tau_lsm",
                    TextTable::Num(engine.tau_lsm(0), 3)});
  internals.AddRow({"judger deferrals (GPU guardrail)",
                    std::to_string(gpu.judger_deferrals())});
  std::cout << internals.Render() << '\n';

  // Replay the workload's last few tool calls against the final cache and
  // print what each lookup saw.
  std::cout << "=== last lookups, replayed against the final cache ===\n";
  TextTable decisions({"query (truncated)", "ANN cands", "judged", "outcome",
                       "best sim", "best score"});
  std::vector<std::string> last;
  for (auto task = bundle.tasks.rbegin();
       task != bundle.tasks.rend() && last.size() < 5; ++task) {
    for (const auto& step : task->steps) last.push_back(step.query);
  }
  last.resize(std::min<std::size_t>(last.size(), 5));
  for (const auto& query : last) {
    serve::LookupDetail d;
    const auto hit = engine.Lookup(query, nullptr, {}, &d);
    double best_sim = hit ? hit->similarity : 0.0;
    double best_score = hit ? hit->judger_score : 0.0;
    for (const auto& judged : d.probe.sine.judged) {
      best_sim = std::max(best_sim, judged.similarity);
      best_score = std::max(best_score, judged.judger_score);
    }
    decisions.AddRow({query.substr(0, 36),
                      std::to_string(d.probe.sine.ann_candidates),
                      std::to_string(d.probe.sine.judger_calls),
                      hit ? "HIT" : "miss", TextTable::Num(best_sim, 2),
                      TextTable::Num(best_score, 2)});
  }
  std::cout << decisions.Render() << '\n';

  std::cout << "=== remote service ===\n";
  TextTable remote({"counter", "value"});
  remote.AddRow({"API calls", std::to_string(service.total_calls())});
  remote.AddRow({"retries", std::to_string(service.total_retries())});
  remote.AddRow({"retry ratio", TextTable::Percent(service.RetryRatio())});
  remote.AddRow({"API cost ($)", TextTable::Num(service.total_cost_dollars(), 3)});
  std::cout << remote.Render();
  return 0;
}
