#include "sim/driver.h"

#include <utility>

#include "util/check.h"

namespace cortex {

struct ServingDriver::TaskState {
  explicit TaskState(AgentTask task) : session(std::move(task)) {}
  AgentSession session;
  TaskRecord record;
};

ServingDriver::ServingDriver(const AgentModel& agent, ColocationSimulator& gpu,
                             ToolResolver& resolver, DriverOptions options)
    : agent_(agent),
      gpu_(gpu),
      resolver_(resolver),
      options_(std::move(options)),
      rng_(options_.seed) {}

RunMetrics ServingDriver::Run(std::vector<AgentTask> tasks) {
  RunMetrics metrics;
  metrics_ = &metrics;
  Simulation sim;

  if (!options_.explicit_arrivals.empty()) {
    CHECK_EQ(options_.explicit_arrivals.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto state = std::make_shared<TaskState>(std::move(tasks[i]));
      state->record.arrival_time = options_.explicit_arrivals[i];
      sim.ScheduleAt(options_.explicit_arrivals[i],
                     [this, &sim, state] { StartTask(sim, state); });
    }
  } else if (options_.arrival == DriverOptions::Arrival::kOpenLoop) {
    double t = 0.0;
    for (auto& task : tasks) {
      auto state = std::make_shared<TaskState>(std::move(task));
      state->record.arrival_time = t;
      sim.ScheduleAt(t, [this, &sim, state] { StartTask(sim, state); });
      t += options_.poisson_arrivals
               ? rng_.Exponential(options_.request_rate)
               : 1.0 / options_.request_rate;
    }
  } else {
    // Closed loop: seed `concurrency` tasks; each completion launches the
    // next from pending_.
    pending_ = std::move(tasks);
    // Reverse so pop_back() serves tasks in their original order.
    std::reverse(pending_.begin(), pending_.end());
    const std::size_t initial =
        std::min(options_.concurrency, pending_.size());
    for (std::size_t i = 0; i < initial; ++i) {
      auto state = std::make_shared<TaskState>(std::move(pending_.back()));
      pending_.pop_back();
      state->record.arrival_time = 0.0;
      sim.ScheduleAt(0.0, [this, &sim, state] { StartTask(sim, state); });
    }
  }

  sim.Run();
  metrics_ = nullptr;
  pending_.clear();
  return metrics;
}

void ServingDriver::StartTask(Simulation& sim,
                              std::shared_ptr<TaskState> state) {
  state->record.task_id = state->session.task().id;
  RunTurn(sim, std::move(state), std::nullopt);
}

void ServingDriver::RunTurn(Simulation& sim, std::shared_ptr<TaskState> state,
                            std::optional<std::string> info) {
  const double now = sim.now();
  const AgentTurn turn = agent_.Next(state->session, std::move(info));
  const double done =
      gpu_.RunAgentTurn(now, turn.prompt_tokens, turn.output_tokens);
  state->record.agent_seconds += done - now;

  if (turn.tool_query) {
    // The step just consumed is step_index()-1 (Next() advanced it).
    const std::size_t idx = state->session.step_index() - 1;
    const ToolStep& step = state->session.task().steps[idx];
    sim.ScheduleAt(done, [this, &sim, state, &step] {
      resolver_.Resolve(sim, step, state->record.task_id,
                        [this, &sim, state](ResolveOutcome out) {
        auto& rec = state->record;
        rec.tool_calls += 1;
        rec.cache_hits += out.from_cache ? 1 : 0;
        rec.wrong_hits += out.from_cache && !out.info_correct ? 1 : 0;
        rec.cache_check_seconds += out.cache_check_seconds;
        rec.tool_seconds += out.tool_seconds;
        rec.api_calls += out.api_calls;
        rec.retries += out.retries;
        rec.cost_dollars += out.cost_dollars;
        rec.all_observations_correct &= out.info_correct;
        RunTurn(sim, state, std::move(out.info));
      });
    });
  } else {
    sim.ScheduleAt(done, [this, &sim, state] { FinishTask(sim, state); });
  }
}

void ServingDriver::FinishTask(Simulation& sim,
                               std::shared_ptr<TaskState> state) {
  auto& rec = state->record;
  rec.completion_time = sim.now();
  rec.answer_correct = AnswerIsCorrect(state->session.task(),
                                       rec.all_observations_correct);
  metrics_->Record(rec);

  if (options_.arrival == DriverOptions::Arrival::kClosedLoop &&
      options_.explicit_arrivals.empty() && !pending_.empty()) {
    auto next = std::make_shared<TaskState>(std::move(pending_.back()));
    pending_.pop_back();
    next->record.arrival_time = sim.now();
    StartTask(sim, std::move(next));
  }
}

}  // namespace cortex
