// DataClient: the transparent entry point of Fig. 4 (§3.3).
//
// The agent application does not call Cortex explicitly — it emits tagged
// text (<think>…<search>q</search>) exactly as it would when wired straight
// to a tool.  The data client intercepts that output, lifts the tool call
// out of the tags, serves it through the engine (cache hit or delegated
// remote fetch), and hands back a ready-to-append <info> observation.  No
// agent-side changes required.
//
// This class is pure logic over the engine: latency/scheduling are the
// caller's concern (the simulation resolvers model them; a real deployment
// would wrap the fetch delegate around its RPC stack).  It owns a
// one-shard ConcurrentShardedEngine on the caller's clock (the `now` of
// each call) and the Markov prefetcher beside it: the client knows the
// session, which the engine does not.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/prefetcher.h"
#include "llm/tags.h"
#include "serve/concurrent_engine.h"

namespace cortex {

class DataClient {
 public:
  // Delegate used on a cache miss: fetches the knowledge for `query` from
  // the remote data service, returning the retrieved text and its cost
  // profile.  Empty `info` marks a failed fetch.
  struct FetchResultView {
    std::string info;
    double latency_sec = 0.0;
    double cost_dollars = 0.0;
  };
  using RemoteFetcher =
      std::function<FetchResultView(std::string_view query, double now)>;

  // embedder/judger are borrowed and must outlive the client; the
  // embedder must be IDF-fitted.  The client overrides num_shards, clock
  // and housekeeping_interval_sec in `engine_options`.
  DataClient(const HashedEmbedder* embedder, const JudgerModel* judger,
             serve::ConcurrentEngineOptions engine_options,
             RemoteFetcher fetcher, PrefetcherOptions prefetch = {});

  struct TurnResult {
    // True if the agent output contained a tool call at all.
    bool tool_call = false;
    // The extracted query (empty when !tool_call).
    std::string query;
    // The observation to append to the agent context, already wrapped as
    // <info>...</info>.  Unset when there was no tool call.
    std::optional<std::string> observation;
    bool from_cache = false;
    bool fetch_failed = false;
  };

  // Intercepts one raw agent turn.  `session_id` keys the prefetch stream;
  // `now` is the caller's clock.
  TurnResult InterceptTurn(std::string_view agent_output, double now,
                           std::uint64_t session_id = 0);

  // Prefetch proposals made during interception that the caller should
  // fetch asynchronously (cleared on each InterceptTurn call).
  const std::vector<Prediction>& pending_prefetches() const noexcept {
    return pending_prefetches_;
  }
  // Executes the pending prefetches synchronously through the delegate
  // (convenience for non-simulated deployments).
  std::size_t RunPendingPrefetches(double now);

  std::uint64_t turns_seen() const noexcept { return turns_seen_; }
  std::uint64_t tool_calls_seen() const noexcept { return tool_calls_seen_; }
  std::uint64_t served_from_cache() const noexcept {
    return served_from_cache_;
  }

  serve::ConcurrentShardedEngine& engine() noexcept { return *engine_; }

 private:
  // The engine's clock: the `now` of the call being served.
  double now_ = 0.0;
  std::unique_ptr<serve::ConcurrentShardedEngine> engine_;
  MarkovPrefetcher prefetcher_;
  RemoteFetcher fetcher_;
  std::vector<Prediction> pending_prefetches_;
  std::uint64_t turns_seen_ = 0;
  std::uint64_t tool_calls_seen_ = 0;
  std::uint64_t served_from_cache_ = 0;
};

}  // namespace cortex
