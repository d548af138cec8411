#include "core/prefetcher.h"

#include <algorithm>

namespace cortex {

MarkovPrefetcher::MarkovPrefetcher(PrefetcherOptions options)
    : options_(options) {}

void MarkovPrefetcher::Record(std::string_view query) {
  if (previous_query_ && *previous_query_ != query) {
    RecordTransition(*previous_query_, query);
  }
  previous_query_ = std::string(query);
}

void MarkovPrefetcher::Record(std::uint64_t session_id,
                              std::string_view query) {
  const auto it = session_last_.find(session_id);
  if (it != session_last_.end()) {
    if (it->second != query) RecordTransition(it->second, query);
    it->second = std::string(query);
  } else {
    if (session_last_.size() > 4096) session_last_.clear();  // soft cap
    session_last_.emplace(session_id, std::string(query));
  }
}

std::vector<Prediction> MarkovPrefetcher::Step(
    std::uint64_t session_id, std::string_view query,
    const std::function<bool(std::string_view)>& cached) {
  Record(session_id, query);
  std::vector<Prediction> predictions = Predict(query);
  std::erase_if(predictions,
                [&](const Prediction& p) { return cached(p.query); });
  return predictions;
}

void MarkovPrefetcher::RecordTransition(std::string_view from,
                                        std::string_view to) {
  auto& state = transitions_[std::string(from)];
  // Decay existing mass so stale transitions fade under drift.
  if (!state.successors.empty()) {
    state.total = 0.0;
    for (auto& [q, count] : state.successors) {
      count *= options_.decay_factor;
      state.total += count;
    }
  }
  auto& count = state.successors[std::string(to)];
  count += 1.0;
  state.total += 1.0;
  // Cap the successor fan-out: drop the weakest.
  if (state.successors.size() > options_.max_successors_per_state) {
    auto weakest = state.successors.begin();
    for (auto it = state.successors.begin(); it != state.successors.end();
         ++it) {
      if (it->second < weakest->second) weakest = it;
    }
    state.total -= weakest->second;
    state.successors.erase(weakest);
  }
}

std::vector<Prediction> MarkovPrefetcher::Predict(
    std::string_view query) const {
  std::vector<Prediction> out;
  const auto it = transitions_.find(std::string(query));
  if (it == transitions_.end() || it->second.total <= 0.0) return out;
  const auto& state = it->second;
  for (const auto& [next, count] : state.successors) {
    if (count < static_cast<double>(options_.min_observations)) continue;
    const double p = count / state.total;
    if (p >= options_.confidence_threshold) {
      out.push_back({next, p});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.probability > b.probability;
  });
  if (out.size() > options_.max_predictions) {
    out.resize(options_.max_predictions);
  }
  return out;
}

double MarkovPrefetcher::TransitionProbability(std::string_view from,
                                               std::string_view to) const {
  const auto it = transitions_.find(std::string(from));
  if (it == transitions_.end() || it->second.total <= 0.0) return 0.0;
  const auto jt = it->second.successors.find(std::string(to));
  if (jt == it->second.successors.end()) return 0.0;
  return jt->second / it->second.total;
}

void MarkovPrefetcher::Reset() {
  transitions_.clear();
  previous_query_.reset();
  session_last_.clear();
}

}  // namespace cortex
