// Transparent interception: the paper's Fig. 4 data-client wiring.
//
// The "agent" here is raw tagged text — exactly what an LLM serving stack
// streams out.  The DataClient parses each turn, lifts the <search> call,
// serves it semantically, and returns the <info> observation, with no
// agent-side integration.  Run it to watch the same question asked three
// ways cost exactly one remote fetch.
//
//   ./build/examples/transparent_proxy
#include <iomanip>
#include <iostream>

#include "embedding/hashed_embedder.h"
#include "serve/data_client.h"
#include "workload/workloads.h"

using namespace cortex;

int main() {
  // Knowledge world + side models (see DESIGN.md: these stand in for the
  // search API and the Qwen3-0.6B judger/embedder).
  auto profile = SearchDatasetProfile::HotpotQa();
  profile.num_tasks = 1;  // we only need the universe + oracle
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);
  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());

  serve::ConcurrentEngineOptions options;
  options.cache.capacity_tokens = 100000;

  int remote_fetches = 0;
  DataClient client(&embedder, &judger, options,
                    [&](std::string_view query, double) {
                      ++remote_fetches;
                      std::cout << "      [remote fetch #" << remote_fetches
                                << " for \"" << query << "\"]\n";
                      return DataClient::FetchResultView{
                          bundle.oracle->ExpectedInfo(query), 0.42, 0.005};
                    });

  // Three agent turns asking for the same knowledge in different words,
  // then an unrelated one, then the final answer turn.
  const auto& topic = bundle.universe->topic(0);
  const auto& other = bundle.universe->topic(10);
  const std::vector<std::string> turns = {
      WrapTag(TagKind::kThink, "I need this fact.") +
          WrapTag(TagKind::kSearch, topic.paraphrases[0]),
      WrapTag(TagKind::kThink, "Let me double check.") +
          WrapTag(TagKind::kSearch, topic.paraphrases[4]),
      WrapTag(TagKind::kThink, "Once more, differently phrased.") +
          WrapTag(TagKind::kSearch, topic.paraphrases[9]),
      WrapTag(TagKind::kThink, "Now something else entirely.") +
          WrapTag(TagKind::kSearch, other.paraphrases[2]),
      WrapTag(TagKind::kThink, "Enough evidence.") +
          WrapTag(TagKind::kAnswer, "final answer"),
  };

  double now = 0.0;
  for (const auto& turn : turns) {
    now += 1.0;
    std::cout << "agent> " << turn.substr(0, 96)
              << (turn.size() > 96 ? "..." : "") << '\n';
    const auto result = client.InterceptTurn(turn, now, /*session=*/1);
    if (!result.tool_call) {
      std::cout << "      [no tool call - passed through]\n\n";
      continue;
    }
    std::cout << "      -> " << (result.from_cache ? "CACHE HIT " : "MISS      ")
              << result.observation->substr(0, 72) << "...\n\n";
  }

  std::cout << "summary: " << client.tool_calls_seen() << " tool calls, "
            << client.served_from_cache() << " served from cache, "
            << remote_fetches << " remote fetches\n";
  return 0;
}
