// Interfaces binding the simulation driver to a serving configuration.
//
// The driver owns the agent loop (arrivals, turns, observations); a
// ToolResolver decides how each tool call is satisfied — straight to the
// remote service (vanilla), via an exact-match cache, or via the full
// Cortex engine.  Resolvers are asynchronous: they receive the simulation
// and call `done` at the (virtual) time the information is available.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "llm/agent_model.h"
#include "sim/event_queue.h"

namespace cortex {

// Everything the metrics layer wants to know about one resolved tool call.
struct ResolveOutcome {
  std::string info;                // what the agent observes
  bool from_cache = false;         // true if served without a remote call
  bool info_correct = true;        // oracle: is `info` valid for the query?
  double cache_check_seconds = 0;  // embedding + ANN + judger time
  double tool_seconds = 0;         // remote fetch time (0 on a cache hit)
  std::uint64_t api_calls = 0;     // remote attempts issued
  std::uint64_t retries = 0;       // throttled/failed attempts
  double cost_dollars = 0.0;       // API fees for this call
};

using ResolveCallback = std::function<void(ResolveOutcome)>;

class ToolResolver {
 public:
  virtual ~ToolResolver() = default;

  // Resolves `step.query` starting at sim.now(); must eventually invoke
  // `done` exactly once (possibly synchronously at the current time).
  // `task_id` identifies the agent session issuing the call, which lets
  // resolvers keep per-session state (e.g. Markov prefetch streams).
  // `step` is only guaranteed valid for the duration of this call.
  virtual void Resolve(Simulation& sim, const ToolStep& step,
                       std::uint64_t task_id, ResolveCallback done) = 0;

  virtual std::string name() const = 0;
};

// Per-task record emitted by the driver when a task finishes.
struct TaskRecord {
  std::uint64_t task_id = 0;
  double arrival_time = 0.0;
  double completion_time = 0.0;
  double agent_seconds = 0.0;       // LLM inference time
  double cache_check_seconds = 0.0; // total across tool calls
  double tool_seconds = 0.0;        // total remote time
  std::uint64_t tool_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t wrong_hits = 0;     // cache hits whose info was invalid
  std::uint64_t api_calls = 0;
  std::uint64_t retries = 0;
  double cost_dollars = 0.0;
  bool all_observations_correct = true;
  bool answer_correct = false;

  double Latency() const noexcept { return completion_time - arrival_time; }
};

}  // namespace cortex
