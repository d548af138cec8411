// Aggregation of per-task records into the metrics the paper reports:
// throughput (req/s), latency distribution (ms), cache hit rate, EM
// accuracy, API call/retry counts, and dollar costs (§6.1 "Metrics").
#pragma once

#include <string>
#include <vector>

#include "net/cost_model.h"
#include "sim/serving.h"
#include "util/stats.h"

namespace cortex {

class RunMetrics {
 public:
  void Record(const TaskRecord& record);

  std::size_t completed_tasks() const noexcept { return records_.size(); }
  // Requests per second over the span from first arrival to last completion.
  double Throughput() const noexcept;
  const Histogram& latency() const noexcept { return latency_; }
  double MeanLatency() const noexcept { return latency_.mean(); }
  double P99Latency() const noexcept { return latency_.p99(); }

  double CacheHitRate() const noexcept { return hit_ratio_.ratio(); }
  double Accuracy() const noexcept { return accuracy_.ratio(); }

  std::uint64_t total_tool_calls() const noexcept { return tool_calls_; }
  std::uint64_t total_cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t total_wrong_hits() const noexcept { return wrong_hits_; }
  std::uint64_t total_api_calls() const noexcept { return api_calls_; }
  std::uint64_t total_retries() const noexcept { return retries_; }
  double RetryRatio() const noexcept {
    return api_calls_ ? static_cast<double>(retries_) /
                            static_cast<double>(api_calls_)
                      : 0.0;
  }

  double api_dollars() const noexcept { return api_dollars_; }

  // Mean per-request time breakdown (Fig. 11).
  double MeanAgentSeconds() const noexcept { return agent_seconds_.mean(); }
  double MeanCacheCheckSeconds() const noexcept {
    return cache_check_seconds_.mean();
  }
  double MeanToolSeconds() const noexcept { return tool_seconds_.mean(); }

  double first_arrival() const noexcept { return first_arrival_; }
  double last_completion() const noexcept { return last_completion_; }

  const std::vector<TaskRecord>& records() const noexcept { return records_; }

 private:
  std::vector<TaskRecord> records_;
  Histogram latency_;
  StreamingStats agent_seconds_;
  StreamingStats cache_check_seconds_;
  StreamingStats tool_seconds_;
  RatioCounter hit_ratio_;
  RatioCounter accuracy_;
  std::uint64_t tool_calls_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t wrong_hits_ = 0;
  std::uint64_t api_calls_ = 0;
  std::uint64_t retries_ = 0;
  double api_dollars_ = 0.0;
  double first_arrival_ = 1e300;
  double last_completion_ = 0.0;
};

}  // namespace cortex
