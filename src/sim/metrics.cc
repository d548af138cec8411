#include "sim/metrics.h"

#include <algorithm>

namespace cortex {

void RunMetrics::Record(const TaskRecord& record) {
  records_.push_back(record);
  latency_.Add(record.Latency());
  agent_seconds_.Add(record.agent_seconds);
  cache_check_seconds_.Add(record.cache_check_seconds);
  tool_seconds_.Add(record.tool_seconds);
  for (std::uint64_t i = 0; i < record.cache_hits; ++i) hit_ratio_.AddHit();
  for (std::uint64_t i = record.cache_hits; i < record.tool_calls; ++i) {
    hit_ratio_.AddMiss();
  }
  accuracy_.Add(record.answer_correct);
  tool_calls_ += record.tool_calls;
  cache_hits_ += record.cache_hits;
  wrong_hits_ += record.wrong_hits;
  api_calls_ += record.api_calls;
  retries_ += record.retries;
  api_dollars_ += record.cost_dollars;
  first_arrival_ = std::min(first_arrival_, record.arrival_time);
  last_completion_ = std::max(last_completion_, record.completion_time);
}

double RunMetrics::Throughput() const noexcept {
  if (records_.empty()) return 0.0;
  const double span = last_completion_ - first_arrival_;
  return span > 0.0 ? static_cast<double>(records_.size()) / span : 0.0;
}

}  // namespace cortex
