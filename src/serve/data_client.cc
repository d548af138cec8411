#include "serve/data_client.h"

#include "util/check.h"

namespace cortex {

DataClient::DataClient(const HashedEmbedder* embedder,
                       const JudgerModel* judger,
                       serve::ConcurrentEngineOptions engine_options,
                       RemoteFetcher fetcher, PrefetcherOptions prefetch)
    : prefetcher_(prefetch), fetcher_(std::move(fetcher)) {
  CHECK(fetcher_ != nullptr);
  engine_options.num_shards = 1;
  engine_options.clock = [this] { return now_; };
  engine_options.housekeeping_interval_sec = 0.0;
  engine_ = std::make_unique<serve::ConcurrentShardedEngine>(
      embedder, judger, std::move(engine_options));
}

DataClient::TurnResult DataClient::InterceptTurn(std::string_view agent_output,
                                                 double now,
                                                 std::uint64_t session_id) {
  ++turns_seen_;
  now_ = now;
  pending_prefetches_.clear();

  TurnResult result;
  const auto segments = ParseTagged(agent_output);
  const auto tool = FirstToolCall(segments);
  if (!tool) {
    return result;  // nothing to intercept (e.g. the final <answer> turn)
  }
  result.tool_call = true;
  result.query = tool->content;
  ++tool_calls_seen_;

  engine_->RemoveExpired();  // no housekeeping thread runs on this clock
  serve::LookupDetail lookup;
  const auto hit = engine_->Lookup(result.query, nullptr, {}, &lookup);
  pending_prefetches_ = prefetcher_.Step(
      session_id, hit ? hit->matched_key : result.query,
      [this](std::string_view key) { return engine_->ContainsKey(key); });

  if (hit) {
    ++served_from_cache_;
    result.from_cache = true;
    result.observation = WrapTag(TagKind::kInfo, hit->value);
    return result;
  }

  const FetchResultView fetched = fetcher_(result.query, now);
  if (fetched.info.empty()) {
    result.fetch_failed = true;
    result.observation = WrapTag(TagKind::kInfo, "");
    return result;
  }
  InsertRequest admit =
      FetchedInsert(engine_->judger(), result.query, fetched.info,
                    fetched.latency_sec, fetched.cost_dollars,
                    /*initial_frequency=*/1);
  admit.embedding = std::move(lookup.probe.query_embedding);
  engine_->Insert(std::move(admit));
  result.observation = WrapTag(TagKind::kInfo, fetched.info);
  return result;
}

std::size_t DataClient::RunPendingPrefetches(double now) {
  now_ = now;
  std::size_t fetched_count = 0;
  for (const auto& prediction : pending_prefetches_) {
    if (engine_->ContainsKey(prediction.query)) continue;
    const FetchResultView fetched = fetcher_(prediction.query, now);
    if (fetched.info.empty()) continue;
    engine_->Insert(FetchedInsert(engine_->judger(), prediction.query,
                                  fetched.info, fetched.latency_sec,
                                  fetched.cost_dollars,
                                  /*initial_frequency=*/0));
    ++fetched_count;
  }
  pending_prefetches_.clear();
  return fetched_count;
}

}  // namespace cortex
