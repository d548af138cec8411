// MarkovPrefetcher (paper §4.3, Algorithm 3): a first-order Markov model
// over the stream of validated queries.  It learns P(q_next | q) from
// consecutive observations and proposes prefetches whose probability clears
// a confidence threshold.  Speculative entries enter the cache with zero
// frequency, so LCFU evicts them first if they never pay off — the paper's
// low-risk, self-correcting loop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cortex {

struct PrefetcherOptions {
  double confidence_threshold = 0.5;  // Algorithm 3's theta
  std::size_t max_predictions = 2;    // prefetches proposed per observation
  // Transition counts are capped per state; old mass decays so the model
  // tracks drifting workloads.
  std::size_t max_successors_per_state = 8;
  double decay_factor = 0.98;  // applied to a state's counts on update
  std::size_t min_observations = 2;  // successor support needed to predict
};

struct Prediction {
  std::string query;
  double probability = 0.0;
};

class MarkovPrefetcher {
 public:
  explicit MarkovPrefetcher(PrefetcherOptions options = {});

  // Observes the next validated query in the stream; learns the transition
  // from the previously observed query.  With concurrent agent sessions the
  // global stream interleaves unrelated tasks, so callers that know the
  // session should use the keyed overload — transitions are only meaningful
  // within one agent's think->act chain.
  void Record(std::string_view query);
  void Record(std::uint64_t session_id, std::string_view query);

  // Algorithm 3's step for one lookup, as the simulator's resolver and
  // the data client run it beside the engine: records `query` on the
  // session's stream, then returns the predictions for what follows it
  // that `cached` does not already hold.
  std::vector<Prediction> Step(
      std::uint64_t session_id, std::string_view query,
      const std::function<bool(std::string_view)>& cached);

  // Directly learns a (from -> to) transition.
  void RecordTransition(std::string_view from, std::string_view to);

  // Predictions for what follows `query`, filtered by the confidence
  // threshold and support, best-first, at most max_predictions.
  std::vector<Prediction> Predict(std::string_view query) const;

  // Raw transition probability estimate (testing/diagnostics).
  double TransitionProbability(std::string_view from,
                               std::string_view to) const;

  std::size_t num_states() const noexcept { return transitions_.size(); }
  void Reset();

 private:
  struct StateCounts {
    std::unordered_map<std::string, double> successors;
    double total = 0.0;
  };

  PrefetcherOptions options_;
  std::unordered_map<std::string, StateCounts> transitions_;
  std::optional<std::string> previous_query_;  // global-stream tracking
  // Per-session last query; sessions are short-lived, entries are bounded
  // by pruning the oldest once the map grows past a soft cap.
  std::unordered_map<std::uint64_t, std::string> session_last_;
};

}  // namespace cortex
