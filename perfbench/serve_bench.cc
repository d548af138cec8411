// serve_bench: the serving-tier benchmark (perfbench/README.md).
//
// One process builds a workload from --seed, serves it from an in-process
// CortexServer on a Unix socket over a 4-shard ConcurrentShardedEngine,
// and loads it from at most 4 client threads, one connection each.  The
// clients follow the agent protocol: LOOKUP; on MISS, fetch the oracle's
// value and INSERT it.  A run has an open-loop Poisson phase at a fixed
// per-workload rate, which gives the latencies, and then a closed-loop
// phase that measures capacity.  With --trace 1 the run
// instead records spans around calls into each layer and prints per-layer
// metrics.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   serve_bench --workload hot_small --seed 1 --seconds 10 --trace 0
//   serve_bench --report resident      # resident-size curve, not gated
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/semantic_cache.h"
#include "embedding/hashed_embedder.h"
#include "embedding/simd_kernels.h"
#include "embedding/vector_slab.h"
#include "llm/judger_model.h"
#include "llm/tags.h"
#include "serve/client.h"
#include "serve/concurrent_engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spans.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"
#include "workload/workloads.h"

using namespace cortex;
using namespace cortex::serve;
using perfbench::kNoParent;
using perfbench::SpanLog;

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kMaxClients = 4;
// A send later than this behind its schedule counts as late.
constexpr double kLateSec = 1e-3;

double Now() { return telemetry::WallSeconds(); }

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string report;  // "resident": the resident-size report
  int setups = 0;      // 0 = 3 untraced, 1 traced
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + key + "'";
      return false;
    }
    key = key.substr(2);
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "--" + key + " needs a value";
      return false;
    }
    try {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = std::stoi(value) != 0;
      } else if (key == "report") {
        args->report = value;
      } else if (key == "setups") {
        args->setups = std::stoi(value);
      } else {
        *error = "unknown flag --" + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for --" + key + ": '" + value + "'";
      return false;
    }
  }
  if (args->seconds <= 0.0) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  SearchDatasetProfile profile;
  double cache_ratio = 0.4;
  // Insert one phrasing of every topic before serving.
  bool seed_universe = false;
  // Direct agent-protocol operations on the engine after seeding.
  std::size_t warm_ops = 0;
  // Keep warming until the cache has started evicting.
  bool warm_until_full = false;
  std::size_t max_pipeline_batch = 1;
  // Open-loop Poisson arrival rate (agent steps/s, all clients together),
  // fixed so that a faster program shows as lower latency, not more load.
  // Set at 7-25% of the closed-loop capacity measured when the benchmark
  // was defined: the shared 4-vCPU host it was defined on lost up to half
  // its capacity at times, and the open loop must keep its schedule then.
  // At half the capacity the clients' backlogs ran away.
  double open_rps = 0.0;
  // Set-ups per untraced run; setup_s is their median.
  int setups = 3;
};

std::optional<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  spec.profile = SearchDatasetProfile::Musique();
  if (name == "hot_small") {
    // Musique as shipped: 250 topics, ~100 resident at ratio 0.4.
    spec.profile.num_tasks = 5000;
    spec.cache_ratio = 0.4;
    spec.warm_ops = 4000;
    spec.setups = 7;  // a set-up takes ~0.1 s: more of them cost little
    spec.open_rps = 6000.0;
  } else if (name == "scan_large") {
    // ~16k topics seeded whole: ~4k rows per shard to scan per lookup.
    spec.profile.universe.num_topics = 16000;
    spec.profile.num_tasks = 20000;
    spec.cache_ratio = 1.0;
    spec.seed_universe = true;
    spec.warm_ops = 1000;
    spec.max_pipeline_batch = 8;
    spec.open_rps = 1500.0;
  } else if (name == "churn") {
    // Flat popularity over a wide universe at ratio 0.1: the stream's
    // working set is about twice the cache, so most accepted inserts
    // evict.
    spec.profile.universe.num_topics = 32000;
    spec.profile.universe.paraphrases_per_topic = 8;
    spec.profile.zipf_exponent = 0.0;
    spec.profile.intra_cluster_zipf = 0.0;
    spec.profile.num_tasks = 3500;
    spec.cache_ratio = 0.1;
    spec.warm_until_full = true;
    spec.warm_ops = 2000;
    spec.open_rps = 2000.0;
  } else {
    return std::nullopt;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// The served stack

struct Stack {
  WorkloadBundle bundle;
  HashedEmbedder embedder;
  std::unique_ptr<JudgerModel> judger;
  std::vector<std::string> stream;  // the generated tool queries
  std::unique_ptr<ConcurrentShardedEngine> engine;
  std::unique_ptr<CortexServer> server;
  std::vector<BlockingClient> clients;  // declared last: closed first
  double seed_s = 0.0;   // seeding + warm-up on the engine
  double setup_s = 0.0;  // world + engine + seeding + server + connects
};

// One agent-protocol step straight on the engine (seeding, warm-up and
// the layer probes).  Returns true on a hit.
bool DirectAgentOp(ConcurrentShardedEngine& engine,
                   const GroundTruthOracle& oracle, const std::string& query) {
  if (engine.Lookup(query)) return true;
  InsertRequest req;
  req.key = query;
  req.value = oracle.ExpectedInfo(query);
  if (req.value.empty()) return false;
  req.staticity = oracle.Staticity(query);
  req.initial_frequency = 1;  // as the server's INSERT does
  engine.Insert(std::move(req));
  return false;
}

std::uint64_t StreamSeed(const WorkloadSpec& spec, std::uint64_t seed) {
  return Mix64(spec.profile.seed ^ (seed * 0x9e3779b97f4a7c15ULL));
}

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec,
                                  std::uint64_t seed,
                                  const std::string& socket_path,
                                  std::string* error) {
  const double t0 = Now();
  auto s = std::make_unique<Stack>();
  SearchDatasetProfile profile = spec.profile;
  profile.seed = StreamSeed(spec, seed);
  s->bundle = BuildSkewedSearchWorkload(profile);
  s->embedder.FitIdf(s->bundle.AllQueries());
  s->judger = std::make_unique<JudgerModel>(s->bundle.oracle.get());
  for (const auto& task : s->bundle.tasks) {
    for (const auto& step : task.steps) s->stream.push_back(step.query);
  }

  ConcurrentEngineOptions eopts;
  eopts.num_shards = kShards;
  eopts.cache.capacity_tokens =
      spec.cache_ratio * s->bundle.TotalKnowledgeTokens();
  eopts.housekeeping_interval_sec = 1.0;  // cortexd's default
  s->engine = std::make_unique<ConcurrentShardedEngine>(
      &s->embedder, s->judger.get(), eopts);
  s->engine->SetGroundTruthFetcher(
      [oracle = s->bundle.oracle](std::string_view query) {
        return oracle->ExpectedInfo(query);
      });

  const double seed_t0 = Now();
  const GroundTruthOracle& oracle = *s->bundle.oracle;
  if (spec.seed_universe) {
    for (const auto& topic : s->bundle.universe->topics()) {
      InsertRequest req;
      req.key = topic.paraphrases.front();
      // The oracle's answer for the phrasing, not topic.answer: in a wide
      // universe two topics can share a phrasing, and every stored pair
      // must agree with the oracle for the hit checks to hold.
      req.value = oracle.ExpectedInfo(req.key);
      req.staticity = topic.staticity;
      req.initial_frequency = 1;
      s->engine->Insert(std::move(req));
    }
  }
  // The warm-up replays a stream of the profile's own seed, the same for
  // every --seed.  An entry keeps the phrasing it was first inserted
  // under (later inserts of the same value dedup onto it), and whether
  // other phrasings match that key decides the hottest topics' hit rate;
  // a seed-dependent warm-up shows up as hit-rate noise between seeds.
  std::vector<std::string> warm_stream;
  {
    SearchDatasetProfile warm_profile = spec.profile;
    warm_profile.num_tasks = 2000;
    const WorkloadBundle warm = BuildSkewedSearchWorkload(warm_profile);
    for (const auto& task : warm.tasks) {
      for (const auto& step : task.steps) warm_stream.push_back(step.query);
    }
  }
  Rng rng(Mix64(0x5eed));
  const auto warm_step = [&] {
    DirectAgentOp(*s->engine, oracle,
                  warm_stream[rng.NextBelow(warm_stream.size())]);
  };
  if (spec.warm_until_full) {
    auto* evictions = s->engine->registry()->GetCounter("cortex_cache_evictions");
    const std::size_t limit = 50 * warm_stream.size();
    for (std::size_t i = 0; i < limit && evictions->Value() == 0; ++i) {
      warm_step();
    }
    if (evictions->Value() == 0) {
      *error = "warm-up never filled the cache";
      return nullptr;
    }
  }
  for (std::size_t i = 0; i < spec.warm_ops; ++i) warm_step();
  s->seed_s = Now() - seed_t0;

  ServerOptions sopts;
  sopts.unix_path = socket_path;
  sopts.num_workers = kMaxClients;  // one worker per client connection
  sopts.max_pipeline_batch = spec.max_pipeline_batch;
  sopts.batch_window_us = 200;
  sopts.pipeline_threads = 2;
  s->server = std::make_unique<CortexServer>(s->engine.get(), sopts);
  if (!s->server->Start(error)) return nullptr;
  s->clients.resize(kMaxClients);
  for (BlockingClient& c : s->clients) {
    if (!c.ConnectUnix(socket_path, error)) return nullptr;
  }
  s->setup_s = Now() - t0;
  return s;
}

// Tears a stack down without tripping a lost wake-up in
// CortexServer::Stop(): Stop() sets its stop flag without holding the
// connection-queue mutex, so a worker just going back to its queue wait
// can miss the notify, and Stop() then joins that worker forever.  After
// one PING answered on every client connection, each worker is busy
// serving one of them; Stop() runs on its own thread, and the connections
// close only once it has begun, so every worker finds the flag already
// set when its connection ends.
void Teardown(std::unique_ptr<Stack>& s) {
  if (!s) return;
  if (s->server && s->server->running()) {
    for (BlockingClient& c : s->clients) {
      Request ping;
      ping.type = RequestType::kPing;
      c.Call(ping);
    }
    std::thread stopper([&s] { s->server->Stop(); });
    while (s->server->running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    s->clients.clear();
    stopper.join();
  }
  s.reset();
}

// ---------------------------------------------------------------------------
// Wire phases

struct PhaseStats {
  std::vector<double> lookup_s;  // per completed LOOKUP, from its send
  std::vector<double> lookup_at;  // ... and when it was sent
  // ... and from when it was due, counting the wait behind the client's
  // previous step.
  std::vector<double> lookup_due_s;
  std::vector<double> insert_s;  // per completed INSERT, from its send
  std::vector<double> insert_at;  // ... and when it was sent
  // Completed operations per kSlotSec slot of the phase.
  std::vector<std::uint64_t> done_slots;
  // Completed operations per second of each part (RunParts).
  std::vector<double> part_rates;
  std::vector<double> lag_s;     // scheduled send -> actual send, when idle
  std::uint64_t lookups = 0;     // attempted
  std::uint64_t inserts = 0;     // attempted
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t wrong_hits = 0;  // value does not answer the query
  std::uint64_t bad_hits = 0;    // value is not what was stored for its key
  std::uint64_t rejects = 0;
  std::uint64_t busy = 0;
  std::uint64_t transport = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t late_sends = 0;
  double start = 0.0;
  double end = 0.0;  // when the last client finished

  static constexpr double kSlotSec = 0.05;

  void Done(double t) {
    const double slot = std::floor((t - start) / kSlotSec);
    if (slot >= 0 && slot < static_cast<double>(done_slots.size())) {
      ++done_slots[static_cast<std::size_t>(slot)];
    }
  }

  std::uint64_t failed() const { return busy + transport + unexpected; }
  std::uint64_t attempted() const { return lookups + inserts; }
  std::uint64_t completed() const { return attempted() - failed(); }

  // Closed-loop phases keep no lookup samples, only the count.
  bool keep_lookups = true;

  void Lookup(double due, double sent, double done) {
    if (keep_lookups) {
      lookup_s.push_back(done - sent);
      lookup_at.push_back(sent);
      lookup_due_s.push_back(done - due);
    }
    Done(done);
  }

  void Merge(const PhaseStats& o) {
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(lookup_s, o.lookup_s);
    append(lookup_at, o.lookup_at);
    append(lookup_due_s, o.lookup_due_s);
    append(insert_s, o.insert_s);
    append(insert_at, o.insert_at);
    done_slots.resize(std::max(done_slots.size(), o.done_slots.size()));
    for (std::size_t i = 0; i < o.done_slots.size(); ++i) {
      done_slots[i] += o.done_slots[i];
    }
    append(lag_s, o.lag_s);
    lookups += o.lookups;
    inserts += o.inserts;
    hits += o.hits;
    misses += o.misses;
    wrong_hits += o.wrong_hits;
    bad_hits += o.bad_hits;
    rejects += o.rejects;
    busy += o.busy;
    transport += o.transport;
    unexpected += o.unexpected;
    late_sends += o.late_sends;
    end = std::max(end, o.end);
  }
};

// One agent-protocol step over the wire, due at `due`.  Each request is
// timed from its send; the LOOKUP also from `due`.  Returns false once the
// connection is gone.
bool WireAgentOp(BlockingClient& client, const GroundTruthOracle& oracle,
                 const std::string& query, double due, PhaseStats& st,
                 SpanLog* log, std::uint64_t request) {
  const std::uint32_t root =
      log ? log->Add("agent.request", due, 0.0, kNoParent, request)
          : kNoParent;
  const auto finish = [&](bool alive) {
    if (log) log->SetEnd(root, Now());
    return alive;
  };
  Request lookup;
  lookup.type = RequestType::kLookup;
  lookup.query = query;
  ++st.lookups;
  std::string err;
  const double l0 = Now();
  const auto response = client.Call(lookup, &err);
  const double l1 = Now();
  if (log) log->Add("wire.lookup", l0, l1, root, request);
  if (!response) {
    ++st.transport;
    return finish(false);
  }
  switch (response->type) {
    case ResponseType::kHit:
      ++st.hits;
      st.Lookup(due, l0, l1);
      if (response->value != oracle.ExpectedInfo(response->matched_key)) {
        ++st.bad_hits;
      }
      if (!oracle.InfoCorrect(query, response->value)) ++st.wrong_hits;
      return finish(true);
    case ResponseType::kMiss:
      ++st.misses;
      st.Lookup(due, l0, l1);
      break;
    case ResponseType::kBusy:
      ++st.busy;
      return finish(true);
    default:
      ++st.unexpected;
      return finish(true);
  }

  // Miss path: fetch from the remote service (the oracle), then INSERT.
  const double f0 = Now();
  Request insert;
  insert.type = RequestType::kInsert;
  insert.key = query;
  insert.value = oracle.ExpectedInfo(query);
  insert.staticity = oracle.Staticity(query);
  const double i0 = Now();
  if (log) log->Add("oracle.fetch", f0, i0, root, request);
  if (insert.value.empty()) return finish(true);
  ++st.inserts;
  const auto ack = client.Call(insert, &err);
  const double i1 = Now();
  if (log) log->Add("wire.insert", i0, i1, root, request);
  if (!ack) {
    ++st.transport;
    return finish(false);
  }
  switch (ack->type) {
    case ResponseType::kReject:
      ++st.rejects;
      [[fallthrough]];
    case ResponseType::kOk:
      st.insert_s.push_back(i1 - i0);
      st.insert_at.push_back(i0);
      st.Done(i1);
      break;
    case ResponseType::kBusy:
      ++st.busy;
      break;
    default:
      ++st.unexpected;
      break;
  }
  return finish(true);
}

struct PhaseConfig {
  bool open_loop = true;
  double rate = 0.0;  // open loop: arrivals/s over all clients
  double duration = 1.0;
  std::uint64_t rng_seed = 1;
  bool traced = false;
};

// Runs one phase with every client connection on its own thread.  Traced
// phases append their spans to `log`.
PhaseStats RunPhase(Stack& s, const PhaseConfig& cfg, SpanLog* log) {
  const GroundTruthOracle& oracle = *s.bundle.oracle;
  const std::size_t n = s.clients.size();
  std::vector<PhaseStats> per(n);
  std::vector<SpanLog> logs(n);
  const double start = Now() + 0.005;
  const double end = start + cfg.duration;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      // Precise sleeps: the default 50 us timer slack would otherwise
      // show up as generator lag.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      PhaseStats& st = per[t];
      st.start = start;
      st.keep_lookups = cfg.open_loop;
      st.done_slots.assign(
          static_cast<std::size_t>(cfg.duration / PhaseStats::kSlotSec) + 1,
          0);
      SpanLog* tlog = cfg.traced ? &logs[t] : nullptr;
      Rng rng(Mix64(cfg.rng_seed * 31 + t));
      const double rate = cfg.rate / static_cast<double>(n);
      double next = start;
      std::uint64_t request = (static_cast<std::uint64_t>(t) + 1) << 40;
      while (true) {
        double due;
        if (cfg.open_loop) {
          next += rng.Exponential(rate);
          if (next >= end) break;
          const double now = Now();
          if (now < next) {
            // Idle until the send is due; oversleep is the generator's lag.
            std::this_thread::sleep_for(
                std::chrono::duration<double>(next - now));
            st.lag_s.push_back(Now() - next);
          } else if (now - next > kLateSec) {
            ++st.late_sends;  // still in the previous step when this was due
          }
          due = next;
        } else {
          due = Now();
          if (due >= end) break;
        }
        const std::string& query = s.stream[rng.NextBelow(s.stream.size())];
        if (!WireAgentOp(s.clients[t], oracle, query, due, st, tlog,
                         ++request)) {
          break;
        }
      }
      st.end = Now();
    });
  }
  for (auto& th : pool) th.join();
  PhaseStats total;
  total.start = start;
  for (std::size_t t = 0; t < n; ++t) {
    total.Merge(per[t]);
    if (log) log->Merge(logs[t]);
  }
  if (cfg.open_loop) {
    // A client sends late when its previous exchange is still running:
    // that is queueing the latency includes.  A backlog that outlives the
    // phase means the schedule was not kept.
    const double overrun = total.end - end;
    const double late_share =
        total.lookups ? static_cast<double>(total.late_sends) /
                            static_cast<double>(total.lookups)
                      : 0.0;
    std::fprintf(stderr,
                 "open loop: %.2f%% of sends >1 ms behind schedule, last "
                 "client done %.3f s after the phase\n",
                 100.0 * late_share, overrun);
    if (overrun > 0.05 * cfg.duration) {
      std::fprintf(stderr,
                   "WARNING: open-loop generator fell behind its schedule\n");
    }
  }
  return total;
}

// CPU time the hypervisor gave to other guests (the "steal" column of
// /proc/stat), in seconds summed over CPUs.  Printed to stderr so that a
// run slowed by the host can be told from one slowed by the program.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Runs a phase as `parts` back-to-back parts of equal length, each on
// fresh client threads, and merges them.  Thread placement is drawn anew
// per part, so one unlucky placement moves one part, not the run.  Each
// part's completed operations per second land in `part_rates`.
PhaseStats RunParts(Stack& s, PhaseConfig cfg, std::size_t parts,
                    SpanLog* log) {
  cfg.duration /= static_cast<double>(parts);
  PhaseStats total;
  for (std::size_t p = 0; p < parts; ++p) {
    cfg.rng_seed = Mix64(cfg.rng_seed + p);
    PhaseStats part = RunPhase(s, cfg, log);
    std::uint64_t done = 0;
    for (std::size_t i = 0; i + 1 < part.done_slots.size(); ++i) {
      done += part.done_slots[i];  // the last slot is partial
    }
    total.part_rates.push_back(
        static_cast<double>(done) /
        (static_cast<double>(part.done_slots.size() - 1) *
         PhaseStats::kSlotSec));
    if (p == 0) total.start = part.start;
    part.done_slots.clear();
    total.Merge(part);
  }
  return total;
}

// Two unmeasured seconds of open-loop load after set-up, so that the
// measured phases do not see the tail of set-up (freed stacks, cold
// pages, threads not yet scheduled).  Its operations still count as
// attempted and are checked.
PhaseStats Settle(Stack& s, const WorkloadSpec& spec, std::uint64_t seed) {
  PhaseConfig cfg;
  cfg.rate = spec.open_rps;
  cfg.duration = 2.0;
  cfg.rng_seed = Mix64(seed * 2);
  return RunPhase(s, cfg, nullptr);
}

// ---------------------------------------------------------------------------
// Statistics and output

// Nearest-rank quantile (sorts a copy).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// p99 is only supported with at least ten samples beyond it.
double P99(const std::vector<double>& v, const char* what) {
  if (v.size() < 1000) {
    std::fprintf(stderr, "note: %s p99 rests on %zu samples (<1000)\n", what,
                 v.size());
  }
  return Quantile(v, 0.99);
}

// Orders the samples by time, cuts them into consecutive windows of
// `min_per_window` samples or more, takes quantile q in each window and
// returns the first quartile of those.  A p99 over 1000-sample windows has
// ten samples beyond it in every window.  Interference from the shared
// host only ever slows the program down, so the best quarter of the
// windows estimates the program's own latency; the median moved with the
// host's load.
double WindowedQuantile(const std::vector<double>& at,
                        const std::vector<double>& values, double q,
                        std::size_t min_per_window) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return at[a] < at[b]; });
  const std::size_t k =
      std::max<std::size_t>(values.size() / min_per_window, 1);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    std::vector<double> window;
    for (std::size_t i = w * order.size() / k;
         i < (w + 1) * order.size() / k; ++i) {
      window.push_back(values[order[i]]);
    }
    if (!window.empty()) per_window.push_back(Quantile(std::move(window), q));
  }
  return Quantile(std::move(per_window), 0.25);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double RssPeakMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// FNV-1a over the query stream: two seeds must give different streams.
std::uint64_t StreamFingerprint(const std::vector<std::string>& stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& q : stream) {
    for (const char c : q) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    h = (h ^ 0xff) * 0x100000001b3ULL;
  }
  return h;
}

std::map<std::string, double> FetchStats(BlockingClient& client,
                                         bool* ok) {
  std::map<std::string, double> out;
  Request stats;
  stats.type = RequestType::kStats;
  std::string err;
  const auto response = client.Call(stats, &err);
  if (!response || response->type != ResponseType::kStats) {
    std::fprintf(stderr, "STATS failed: %s\n", err.c_str());
    *ok = false;
    return out;
  }
  for (const auto& [k, v] : response->stats) {
    char* endp = nullptr;
    const double d = std::strtod(v.c_str(), &endp);
    if (endp != v.c_str()) out[k] = d;
  }
  return out;
}

double Stat(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Layer probes for the traced run.  Each records spans around calls into
// one layer's public functions and reads the layer metric off them.

struct ProbeContext {
  Stack& s;
  SpanLog& log;
  std::vector<Metric>& metrics;
  std::uint64_t bad = 0;  // output mismatches found by the probes
  std::uint64_t next_request = 1;
};

double NsPer(const std::vector<double>& batch_seconds, double per_batch) {
  return Median(batch_seconds) * 1e9 / per_batch;
}

// serve/protocol: encode, frame, decode and parse one LOOKUP request and
// its HIT response, over the workload's own queries and values.
void ProbeProtocol(ProbeContext& ctx, double budget) {
  const auto& oracle = *ctx.s.bundle.oracle;
  const std::size_t n = std::min<std::size_t>(512, ctx.s.stream.size());
  std::vector<std::string> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = oracle.ExpectedInfo(ctx.s.stream[i]);
  }
  constexpr std::size_t kBatch = 64;
  FrameDecoder decoder;
  std::string frame, payload;
  const double stop = Now() + budget;
  std::size_t i = 0;
  for (int b = 0; b < 400 && Now() < stop; ++b) {
    const double t0 = Now();
    for (std::size_t k = 0; k < kBatch; ++k, i = (i + 1) % n) {
      const std::string& q = ctx.s.stream[i];
      Request req;
      req.type = RequestType::kLookup;
      req.query = q;
      frame.clear();
      AppendFrame(EncodePayload(req), frame);
      decoder.Feed(frame);
      decoder.Next(&payload);
      const auto parsed = ParseRequest(payload);
      Response resp;
      resp.type = ResponseType::kHit;
      resp.matched_key = q;
      resp.value = values[i];
      resp.similarity = 0.93;
      resp.judger_score = 0.87;
      frame.clear();
      AppendFrame(EncodePayload(resp), frame);
      decoder.Feed(frame);
      decoder.Next(&payload);
      const auto back = ParseResponse(payload);
      if (!parsed || parsed->query != q || !back ||
          back->value != values[i]) {
        ++ctx.bad;
      }
    }
    ctx.log.Add("protocol.roundtrip_x64", t0, Now(), kNoParent, 0);
  }
  ctx.metrics.push_back({"protocol.roundtrip_ns",
                         NsPer(ctx.log.Durations("protocol.roundtrip_x64"),
                               kBatch),
                         "ns"});
}

// Copies the spans a RequestTrace out-param carries under `parent`.
void AddTraceSpans(SpanLog& log, const telemetry::RequestTrace& trace,
                   std::uint32_t parent, std::uint64_t request) {
  const std::size_t n = std::min<std::size_t>(trace.span_count,
                                              telemetry::kMaxTraceSpans);
  for (std::size_t i = 0; i < n; ++i) {
    const telemetry::TraceSpan& sp = trace.spans[i];
    const char* name = "engine.other";
    switch (sp.phase) {
      case telemetry::TracePhase::kEmbed:
        name = "engine.embed";
        break;
      case telemetry::TracePhase::kAnnProbe:
        name = "engine.ann_probe";
        break;
      case telemetry::TracePhase::kJudger:
        name = "engine.judger";
        break;
      case telemetry::TracePhase::kCommit:
        name = "engine.commit";
        break;
      case telemetry::TracePhase::kInsert:
        name = "engine.cache_insert";
        break;
      case telemetry::TracePhase::kEviction:
        name = "engine.eviction";
        break;
      default:
        break;
    }
    log.Add(name, sp.start, sp.start + sp.duration, parent, request);
  }
}

bool HitIsStored(const GroundTruthOracle& oracle, const CacheHit& hit) {
  return hit.value == oracle.ExpectedInfo(hit.matched_key);
}

// serve/server and serve/concurrent_engine: the same queries as a wire
// LOOKUP on one connection, a direct engine.Lookup and a read-only Peek.
void ProbeWireVsEngine(ProbeContext& ctx, double budget) {
  Stack& s = ctx.s;
  const auto& oracle = *s.bundle.oracle;
  BlockingClient& client = s.clients.front();
  Rng rng(Mix64(0x3a11));
  const double stop = Now() + budget;
  for (int i = 0; i < 4000 && Now() < stop; ++i) {
    const std::string& q = s.stream[rng.NextBelow(s.stream.size())];
    const std::uint64_t id = ctx.next_request++;
    Request lookup;
    lookup.type = RequestType::kLookup;
    lookup.query = q;
    std::string err;
    const double w0 = Now();
    const auto response = client.Call(lookup, &err);
    ctx.log.Add("server.wire_lookup", w0, Now(), kNoParent, id);
    if (!response || (response->type != ResponseType::kHit &&
                      response->type != ResponseType::kMiss)) {
      ++ctx.bad;
      break;
    }

    telemetry::RequestTrace trace;
    const double e0 = Now();
    const auto hit = s.engine->Lookup(q, &trace);
    const std::uint32_t span =
        ctx.log.Add("engine.lookup", e0, Now(), kNoParent, id);
    AddTraceSpans(ctx.log, trace, span, id);
    if (hit && !HitIsStored(oracle, *hit)) ++ctx.bad;

    const double p0 = Now();
    s.engine->Peek(q);
    ctx.log.Add("engine.peek", p0, Now(), kNoParent, id);
  }
  const auto wire = ctx.log.Durations("server.wire_lookup");
  const auto lookups = ctx.log.Durations("engine.lookup");
  const double lookup_p50 = Median(lookups) * 1e6;
  const double peek_p50 = Median(ctx.log.Durations("engine.peek")) * 1e6;
  ctx.metrics.push_back({"server.wire_overhead_p50_us",
                         Median(wire) * 1e6 - lookup_p50, "us"});
  ctx.metrics.push_back({"engine.lookup_p50_us", lookup_p50, "us"});
  ctx.metrics.push_back(
      {"engine.lookup_p99_us", P99(lookups, "engine lookup") * 1e6, "us"});
  ctx.metrics.push_back({"engine.peek_p50_us", peek_p50, "us"});
  ctx.metrics.push_back(
      {"engine.commit_p50_us", lookup_p50 - peek_p50, "us"});
}

// serve/concurrent_engine insert path: the agent protocol straight on the
// engine, timing each miss's Insert.
void ProbeEngineInsert(ProbeContext& ctx, double budget) {
  Stack& s = ctx.s;
  const auto& oracle = *s.bundle.oracle;
  Rng rng(Mix64(0x1257));
  const double stop = Now() + budget;
  std::size_t inserts = 0;
  while (inserts < 3000 && Now() < stop) {
    const std::string& q = s.stream[rng.NextBelow(s.stream.size())];
    if (const auto hit = s.engine->Lookup(q)) {
      if (!HitIsStored(oracle, *hit)) ++ctx.bad;
      continue;
    }
    InsertRequest req;
    req.key = q;
    req.value = oracle.ExpectedInfo(q);
    req.staticity = oracle.Staticity(q);
    req.initial_frequency = 1;
    const std::uint64_t id = ctx.next_request++;
    telemetry::RequestTrace trace;
    const double i0 = Now();
    s.engine->Insert(std::move(req), &trace);
    const std::uint32_t span =
        ctx.log.Add("engine.insert", i0, Now(), kNoParent, id);
    AddTraceSpans(ctx.log, trace, span, id);
    ++inserts;
  }
  const auto ins = ctx.log.Durations("engine.insert");
  ctx.metrics.push_back({"engine.insert_p50_us", Median(ins) * 1e6, "us"});
  ctx.metrics.push_back(
      {"engine.insert_p99_us", P99(ins, "engine insert") * 1e6, "us"});
  ctx.metrics.push_back({"engine.resident_entries",
                         static_cast<double>(s.engine->TotalSize()),
                         "count"});
}

// embedding: HashedEmbedder::Embed, EmbedBatch of 8, and the i8 dot-row
// kernel over a slab the size of one shard's resident set.
void ProbeEmbedding(ProbeContext& ctx, double budget) {
  Stack& s = ctx.s;
  const HashedEmbedder& embedder = s.embedder;
  const std::size_t dim = embedder.dimension();
  const double start = Now();
  constexpr std::size_t kBatch = 64;
  std::size_t qi = 0;
  double sink = 0.0;
  for (int b = 0; b < 200 && Now() < start + budget / 3.0; ++b) {
    const double t0 = Now();
    for (std::size_t k = 0; k < kBatch; ++k, qi = (qi + 1) % s.stream.size()) {
      sink += embedder.Embed(s.stream[qi])[0];
    }
    ctx.log.Add("embed.embed_x64", t0, Now(), kNoParent, 0);
  }
  ctx.metrics.push_back(
      {"embed.ns_per_query",
       NsPer(ctx.log.Durations("embed.embed_x64"), kBatch), "ns"});

  const std::size_t stride = (dim + 15) & ~static_cast<std::size_t>(15);
  std::vector<float> matrix(8 * stride);
  std::vector<std::string_view> texts(8);
  for (int b = 0; b < 400 && Now() < start + 2.0 * budget / 3.0; ++b) {
    for (auto& t : texts) {
      t = s.stream[qi];
      qi = (qi + 1) % s.stream.size();
    }
    const double t0 = Now();
    for (int r = 0; r < 8; ++r) {
      embedder.EmbedBatch(texts, matrix.data(), stride);
      sink += matrix[0];
    }
    ctx.log.Add("embed.batch8_x8", t0, Now(), kNoParent, 0);
  }
  ctx.metrics.push_back(
      {"embed.batch8_ns_per_query",
       NsPer(ctx.log.Durations("embed.batch8_x8"), 64.0), "ns"});

  // One shard's resident rows, quantized like the snapshot scan tier.
  const auto& topics = s.bundle.universe->topics();
  const std::size_t rows = std::max<std::size_t>(
      1, s.engine->TotalSize() / s.engine->num_shards());
  VectorSlab slab(dim, RowFormat::kI8);
  std::vector<const std::int8_t*> row_ptrs;
  std::vector<float> scales;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto slot =
        slab.Add(embedder.Embed(topics[r % topics.size()].paraphrases[0]));
    row_ptrs.push_back(slab.RowI8(slot));
    scales.push_back(slab.RowScale(slot));
  }
  std::vector<std::int8_t> query_i8(dim);
  std::vector<float> out(rows);
  for (int b = 0; b < 400 && Now() < start + budget; ++b) {
    const Vector qv = embedder.Embed(s.stream[qi]);
    qi = (qi + 1) % s.stream.size();
    const float qscale = simd::QuantizeRowI8(qv, query_i8.data());
    const double t0 = Now();
    simd::DotRowsI8(query_i8.data(), qscale, row_ptrs.data(), scales.data(),
                    rows, dim, out.data());
    ctx.log.Add("scan.dot_rows_i8", t0, Now(), kNoParent, 0);
    sink += out[0];
  }
  ctx.metrics.push_back(
      {"scan.i8_ns_per_row",
       NsPer(ctx.log.Durations("scan.dot_rows_i8"),
             static_cast<double>(rows)),
       "ns"});
  if (sink == 12345.678) std::fprintf(stderr, " ");  // keep the work live
}

// core: SemanticCache::Insert and RemoveExpired on a standalone cache of
// one shard's capacity and resident size.
void ProbeCore(ProbeContext& ctx, double budget) {
  Stack& s = ctx.s;
  const auto& oracle = *s.bundle.oracle;
  SemanticCacheOptions opts;
  opts.capacity_tokens = s.engine->per_shard_capacity_tokens();
  SemanticCache cache(&s.embedder,
                      MakeIndex(IndexType::kFlat, s.embedder.dimension()),
                      s.judger.get(), MakeEviction(EvictionKind::kLcfu),
                      opts);
  const std::size_t target = s.engine->TotalSize() / s.engine->num_shards();
  const auto& topics = s.bundle.universe->topics();
  Rng rng(Mix64(0xc0e));
  double now = 1.0;
  const auto insert_topic = [&](const Topic& t) {
    InsertRequest req;
    req.key = t.paraphrases[rng.NextBelow(t.paraphrases.size())];
    req.value = oracle.ExpectedInfo(req.key);
    req.staticity = t.staticity;
    req.initial_frequency = 1;
    return cache.Insert(std::move(req), now);
  };
  const double stop = Now() + budget;
  for (std::size_t i = 0; cache.size() < target && i < 4 * topics.size() &&
                          Now() < stop - budget / 2.0;
       ++i) {
    insert_topic(topics[rng.NextBelow(topics.size())]);
    now += 1e-3;
  }
  const std::uint64_t evictions_before = cache.counters().evictions;
  for (int i = 0; i < 2000 && Now() < stop - budget / 4.0; ++i) {
    const Topic& t = topics[rng.NextBelow(topics.size())];
    const double t0 = Now();
    insert_topic(t);
    ctx.log.Add("cache.insert", t0, Now(), kNoParent, 0);
    now += 1e-3;
  }
  for (int i = 0; i < 400 && Now() < stop; ++i) {
    const double t0 = Now();
    cache.RemoveExpired(now);  // nothing is due: TTLs are minutes long
    ctx.log.Add("cache.remove_expired", t0, Now(), kNoParent, 0);
  }
  const double cache_insert = Median(ctx.log.Durations("cache.insert")) * 1e6;
  ctx.metrics.push_back({"cache.insert_p50_us", cache_insert, "us"});
  ctx.metrics.push_back(
      {"cache.remove_expired_us",
       Median(ctx.log.Durations("cache.remove_expired")) * 1e6, "us"});
  double engine_insert = 0.0;
  for (const Metric& m : ctx.metrics) {
    if (m.name == "engine.insert_p50_us") engine_insert = m.value;
  }
  ctx.metrics.push_back(
      {"engine.publish_p50_us", engine_insert - cache_insert, "us"});
  std::fprintf(stderr, "core probe: standalone cache %zu entries, %llu "
               "evictions over the timed inserts\n",
               cache.size(),
               static_cast<unsigned long long>(cache.counters().evictions -
                                               evictions_before));
}

// llm: JudgerModel::Judge on (query, cached phrasing, cached value) pairs
// of the workload, half of them a paraphrase of the same topic.
void ProbeJudger(ProbeContext& ctx, double budget) {
  Stack& s = ctx.s;
  const auto& oracle = *s.bundle.oracle;
  const auto& topics = s.bundle.universe->topics();
  struct Pair {
    std::string query, cached, value;
  };
  std::vector<Pair> pairs;
  Rng rng(Mix64(0x1d6e));
  for (std::size_t i = 0; i < 256; ++i) {
    const std::string& q = s.stream[rng.NextBelow(s.stream.size())];
    const auto topic = oracle.TopicOf(q);
    const Topic& t = (topic && rng.Bernoulli(0.5))
                         ? topics[*topic]
                         : topics[rng.NextBelow(topics.size())];
    pairs.push_back({q, t.paraphrases[0], t.answer});
  }
  constexpr std::size_t kBatch = 64;
  double sink = 0.0;
  const double stop = Now() + budget;
  std::size_t pi = 0;
  for (int b = 0; b < 400 && Now() < stop; ++b) {
    const double t0 = Now();
    for (std::size_t k = 0; k < kBatch; ++k, pi = (pi + 1) % pairs.size()) {
      JudgeRequest jr;
      jr.query = pairs[pi].query;
      jr.cached_query = pairs[pi].cached;
      jr.cached_result = pairs[pi].value;
      jr.embedding_similarity = 0.85;
      sink += s.judger->Judge(jr);
    }
    ctx.log.Add("judger.judge_x64", t0, Now(), kNoParent, 0);
  }
  ctx.metrics.push_back(
      {"judger.judge_ns",
       NsPer(ctx.log.Durations("judger.judge_x64"), kBatch), "ns"});
  if (sink == 12345.678) std::fprintf(stderr, " ");  // keep the work live
}

// ---------------------------------------------------------------------------
// Runs

std::string SocketPath() {
  std::filesystem::create_directories(".bench_build");
  return ".bench_build/serve_bench-" + std::to_string(::getpid()) + ".sock";
}

// Builds `setups` stacks one after another, keeps the last, and reports
// the median set-up time.
std::unique_ptr<Stack> SetUp(const WorkloadSpec& spec, std::uint64_t seed,
                             int setups, double* setup_median,
                             std::string* error) {
  const std::string path = SocketPath();
  std::vector<double> times;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < setups; ++i) {
    Teardown(stack);  // tear the previous stack down before timing the next
    stack = BuildStack(spec, seed, path, error);
    if (!stack) return nullptr;
    times.push_back(stack->setup_s);
    std::fprintf(stderr, "setup %d: %.3f s (seeding %.3f s, %zu resident)\n",
                 i + 1, stack->setup_s, stack->seed_s,
                 stack->engine->TotalSize());
  }
  *setup_median = Median(times);
  return stack;
}

int RunUntraced(const WorkloadSpec& spec, const Args& args) {
  double setup_s = 0.0;
  std::string error;
  auto stack =
      SetUp(spec, args.seed, args.setups > 0 ? args.setups : spec.setups, &setup_s,
            &error);
  if (!stack) {
    std::fprintf(stderr, "serve_bench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("stream: %016llx (%zu queries)\n",
              static_cast<unsigned long long>(
                  StreamFingerprint(stack->stream)),
              stack->stream.size());

  const double steal0 = StealSeconds();
  const double wall0 = Now();
  const PhaseStats settle = Settle(*stack, spec, args.seed);

  PhaseConfig open;
  open.open_loop = true;
  open.rate = spec.open_rps;
  open.duration = 0.6 * args.seconds;
  open.rng_seed = Mix64(args.seed * 2 + 1);
  const auto parts = [](double seconds) {
    return static_cast<std::size_t>(std::max(1.0, std::round(seconds)));
  };
  const PhaseStats o = RunParts(*stack, open, parts(open.duration), nullptr);

  PhaseConfig closed;
  closed.open_loop = false;
  closed.duration = 0.4 * args.seconds;
  closed.rng_seed = Mix64(args.seed * 2 + 2);
  const PhaseStats c =
      RunParts(*stack, closed, parts(2.0 * closed.duration), nullptr);

  std::fprintf(stderr, "host steal: %.1f%% of CPU time while measuring\n",
               100.0 * (StealSeconds() - steal0) /
                   ((Now() - wall0) *
                    static_cast<double>(std::thread::hardware_concurrency())));
  for (const auto& [name, st] :
       {std::pair<const char*, const PhaseStats*>{"open", &o},
        {"closed", &c}}) {
    std::printf("phase %s: %llu attempted, %llu failed (busy %llu, "
                "transport %llu, unexpected %llu), %llu hits, %llu misses, "
                "%llu wrong hits\n",
                name, static_cast<unsigned long long>(st->attempted()),
                static_cast<unsigned long long>(st->failed()),
                static_cast<unsigned long long>(st->busy),
                static_cast<unsigned long long>(st->transport),
                static_cast<unsigned long long>(st->unexpected),
                static_cast<unsigned long long>(st->hits),
                static_cast<unsigned long long>(st->misses),
                static_cast<unsigned long long>(st->wrong_hits));
  }

  const std::uint64_t attempted =
      settle.attempted() + o.attempted() + c.attempted();
  const std::uint64_t failed = settle.failed() + o.failed() + c.failed();
  if (o.completed() + c.completed() == 0) {
    std::fprintf(stderr, "serve_bench: no operation completed\n");
    return 3;
  }
  const double hits = static_cast<double>(o.hits + c.hits);
  const double settled = hits + static_cast<double>(o.misses + c.misses);

  std::vector<Metric> m;
  m.push_back({"lookup_p50_us",
               WindowedQuantile(o.lookup_at, o.lookup_s, 0.5, 200) * 1e6,
               "us"});
  // Inserts from both phases: the miss path is rare on read-mostly
  // workloads.
  PhaseStats both = o;
  both.Merge(c);
  m.push_back({"insert_p50_us",
               WindowedQuantile(both.insert_at, both.insert_s, 0.5, 200) * 1e6,
               "us"});
  // The p99s and the capacity moved with the shared host by more than any
  // allowed bound, so they are printed here and reported by the traced
  // run, but not gated.  Capacity is the third quartile over half-second
  // parts: as with latency, host interference only ever lowers it.
  std::printf("not gated: lookup p99 %.1f us, insert p99 %.1f us, capacity "
              "%.0f req/s\n",
              WindowedQuantile(o.lookup_at, o.lookup_s, 0.99, 1000) * 1e6,
              WindowedQuantile(both.insert_at, both.insert_s, 0.99, 1000) *
                  1e6,
              Quantile(c.part_rates, 0.75));
  m.push_back({"hit_rate", settled > 0 ? hits / settled : 0.0, "ratio"});
  // Wrong hits are rare (a handful per run, often none), so the raw ratio
  // is count noise and often 0.  Report the posterior mean under a prior
  // worth kWrongPrior wrong hits in kWrongPrior / 1e-3 hits, over the open
  // phase, whose fixed rate keeps the hit count steady: a few stray wrong
  // hits move it by a few percent, and a real false-hit rate of ~1e-3
  // doubles it.
  constexpr double kWrongPrior = 200.0;
  m.push_back({"wrong_hit_rate",
               (static_cast<double>(o.wrong_hits) + kWrongPrior) /
                   (static_cast<double>(o.hits) + kWrongPrior / 1e-3),
               "ratio"});
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"rss_peak_mb", RssPeakMb(), "MB"});

  const bool correct = settle.bad_hits + o.bad_hits + c.bad_hits == 0 &&
                       settle.unexpected + o.unexpected + c.unexpected == 0;
  Teardown(stack);
  PrintResult(correct, attempted, failed, m);
  return 0;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  double setup_s = 0.0;
  std::string error;
  auto stack = SetUp(spec, args.seed, args.setups > 0 ? args.setups : 1,
                     &setup_s, &error);
  if (!stack) {
    std::fprintf(stderr, "serve_bench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("stream: %016llx (%zu queries)\n",
              static_cast<unsigned long long>(
                  StreamFingerprint(stack->stream)),
              stack->stream.size());
  const double T = args.seconds;
  SpanLog log;
  std::vector<Metric> m;

  // Untraced and traced open-loop phases back to back: the difference is
  // the tracing overhead.
  const PhaseStats settle = Settle(*stack, spec, args.seed);
  PhaseConfig open;
  open.rate = spec.open_rps;
  open.duration = 0.2 * T;
  open.rng_seed = Mix64(args.seed * 2 + 1);
  const auto parts = static_cast<std::size_t>(
      std::max(1.0, std::round(open.duration)));
  const PhaseStats a = RunParts(*stack, open, parts, nullptr);
  bool stats_ok = true;
  const auto before = FetchStats(stack->clients.front(), &stats_ok);
  open.traced = true;
  open.rng_seed = Mix64(args.seed * 2 + 3);
  const PhaseStats b = RunParts(*stack, open, parts, &log);
  const auto after = FetchStats(stack->clients.front(), &stats_ok);
  const auto delta = [&](const char* key) {
    return Stat(after, key) - Stat(before, key);
  };
  PhaseConfig closed;
  closed.open_loop = false;
  closed.duration = 0.1 * T;
  closed.rng_seed = Mix64(args.seed * 2 + 2);
  const PhaseStats c = RunParts(
      *stack, closed,
      static_cast<std::size_t>(std::max(1.0, std::round(2.0 * closed.duration))),
      nullptr);

  if (a.completed() + b.completed() + c.completed() == 0) {
    std::fprintf(stderr, "serve_bench: no operation completed\n");
    return 3;
  }
  const double untraced_p50 =
      WindowedQuantile(a.lookup_at, a.lookup_s, 0.5, 200) * 1e6;
  const double traced_p50 =
      WindowedQuantile(b.lookup_at, b.lookup_s, 0.5, 200) * 1e6;

  const double batches = delta("cortex_pipeline_batches");
  const bool pipelined = batches > 0;
  const double served = delta("requests_served");
  m.push_back({"server.busy_share",
               served > 0 ? delta("requests_busy") / served : 0.0,
               "ratio"});
  // With batching off every lookup is its own batch and never waits.
  m.push_back({"pipeline.batch_size_mean",
               pipelined ? delta("cortex_pipeline_requests") / batches : 1.0,
               "count"});
  m.push_back({"pipeline.stage_wait_p50_us",
               pipelined
                   ? Stat(after, "cortex_pipeline_stage_wait_seconds_p50") *
                         1e6
                   : 0.0,
               "us"});
  m.push_back({"pipeline.window_flush_share",
               pipelined ? delta("cortex_pipeline_window_flushes") / batches
                         : 0.0,
               "ratio"});
  const double inserts = delta("cortex_engine_inserts");
  m.push_back({"cache.evictions_per_insert",
               inserts > 0 ? delta("cortex_cache_evictions") / inserts : 0.0,
               "ratio"});
  const double lookups = delta("cortex_engine_lookups");
  m.push_back({"judger.reject_share",
               lookups > 0 ? delta("cortex_engine_judger_rejects") / lookups
                           : 0.0,
               "ratio"});
  std::vector<double> lag = a.lag_s;
  lag.insert(lag.end(), b.lag_s.begin(), b.lag_s.end());
  m.push_back({"gen.lag_p99_us", P99(lag, "generator lag") * 1e6, "us"});
  m.push_back({"e2e.capacity_rps", Quantile(c.part_rates, 0.75), "req/s"});
  P99(a.lookup_s, "lookup");
  m.push_back({"e2e.lookup_p99_us",
               WindowedQuantile(a.lookup_at, a.lookup_s, 0.99, 1000) * 1e6,
               "us"});
  PhaseStats both = a;
  both.Merge(b);
  P99(both.insert_s, "insert");
  m.push_back({"e2e.insert_p99_us",
               WindowedQuantile(both.insert_at, both.insert_s, 0.99, 1000) *
                   1e6,
               "us"});
  // The untraced open loop timed from when each LOOKUP was due: adds the
  // wait behind the client's previous step (coordinated omission).
  m.push_back({"gen.due_lookup_p50_us",
               WindowedQuantile(a.lookup_at, a.lookup_due_s, 0.5, 200) * 1e6,
               "us"});
  m.push_back({"gen.due_lookup_p99_us",
               WindowedQuantile(a.lookup_at, a.lookup_due_s, 0.99, 1000) * 1e6,
               "us"});
  m.push_back({"trace.overhead_pct",
               untraced_p50 > 0
                   ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                   : 0.0,
               "%"});

  // Layer probes share the rest of the run.
  ProbeContext ctx{*stack, log, m};
  ProbeProtocol(ctx, 0.06 * T);
  ProbeWireVsEngine(ctx, 0.12 * T);
  ProbeEngineInsert(ctx, 0.1 * T);
  ProbeEmbedding(ctx, 0.06 * T);
  ProbeCore(ctx, 0.1 * T);
  ProbeJudger(ctx, 0.04 * T);
  m.push_back({"engine.seed_s", stack->seed_s, "s"});

  double wire_overhead = 0.0, engine_lookup = 0.0, engine_insert = 0.0;
  for (const Metric& x : m) {
    if (x.name == "server.wire_overhead_p50_us") wire_overhead = x.value;
    if (x.name == "engine.lookup_p50_us") engine_lookup = x.value;
    if (x.name == "engine.insert_p50_us") engine_insert = x.value;
  }
  const double rest = untraced_p50 - wire_overhead - engine_lookup;
  std::printf("split: untraced lookup p50 %.1f us = engine lookup %.1f us "
              "(%.0f%%) + wire overhead on one connection %.1f us (%.0f%%) + "
              "open-loop rest %.1f us (%.0f%%: wake-ups, queueing); engine "
              "insert p50 %.1f us = %.2fx engine lookup\n",
              untraced_p50, engine_lookup,
              100.0 * engine_lookup / untraced_p50, wire_overhead,
              100.0 * wire_overhead / untraced_p50, rest,
              100.0 * rest / untraced_p50, engine_insert,
              engine_lookup > 0 ? engine_insert / engine_lookup : 0.0);

  const std::string trace_path = ".bench_build/trace-" + spec.name + "-seed" +
                                 std::to_string(args.seed) + ".tsv";
  if (log.WriteTsv(trace_path)) {
    std::printf("spans: %zu written to %s\n", log.size(), trace_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
  }

  const bool correct =
      stats_ok && settle.bad_hits + a.bad_hits + b.bad_hits + c.bad_hits == 0 &&
      settle.unexpected + a.unexpected + b.unexpected + c.unexpected == 0 &&
      ctx.bad == 0;
  const std::uint64_t attempted =
      settle.attempted() + a.attempted() + b.attempted() + c.attempted();
  const std::uint64_t failed =
      settle.failed() + a.failed() + b.failed() + c.failed();
  Teardown(stack);
  PrintResult(correct, attempted, failed, m);
  return 0;
}

// ---------------------------------------------------------------------------
// Resident-size report: engine lookup and insert latency against resident
// entries and client threads.  Not part of the checked runs.

int RunResidentReport(const Args& args) {
  std::printf("resident-size report (4 shards, i8 scan, direct engine calls, "
              "%.1f s per cell)\n",
              args.seconds);
  std::printf("%9s %7s %10s %10s %10s %10s %9s %8s %9s\n", "resident",
              "threads", "lkp p50us", "lkp p99us", "ins p50us", "ins p99us",
              "lookups", "inserts", "seed s");
  for (const std::size_t resident :
       {std::size_t{1000}, std::size_t{4000}, std::size_t{16000},
        std::size_t{64000}}) {
    SearchDatasetProfile profile = SearchDatasetProfile::Musique();
    // A quarter more topics than fit, so lookups miss and inserts evict.
    profile.universe.num_topics = resident + resident / 4;
    profile.universe.paraphrases_per_topic = 4;
    profile.num_tasks = 10;
    profile.seed = Mix64(args.seed);
    const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);
    HashedEmbedder embedder;
    embedder.FitIdf(bundle.AllQueries());
    JudgerModel judger(bundle.oracle.get());
    const auto& topics = bundle.universe->topics();
    double capacity = 0.0;
    for (std::size_t i = 0; i < resident; ++i) {
      capacity += static_cast<double>(ApproxTokenCount(topics[i].answer));
    }
    ConcurrentEngineOptions eopts;
    eopts.num_shards = kShards;
    eopts.cache.capacity_tokens = capacity;
    eopts.housekeeping_interval_sec = 1.0;
    ConcurrentShardedEngine engine(&embedder, &judger, eopts);
    const double s0 = Now();
    for (std::size_t i = 0; i < resident; ++i) {
      InsertRequest req;
      req.key = topics[i].paraphrases.front();
      req.value = topics[i].answer;
      req.staticity = topics[i].staticity;
      req.initial_frequency = 1;
      engine.Insert(std::move(req));
    }
    const double seed_s = Now() - s0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      std::vector<std::vector<double>> lk(threads), in(threads);
      std::vector<std::thread> pool;
      const double end = Now() + args.seconds;
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          Rng rng(Mix64(args.seed * 131 + t));
          while (Now() < end) {
            const Topic& topic = topics[rng.NextBelow(topics.size())];
            const std::string& q =
                topic.paraphrases[rng.NextBelow(topic.paraphrases.size())];
            const double l0 = Now();
            const bool hit = engine.Lookup(q).has_value();
            const double l1 = Now();
            lk[t].push_back(l1 - l0);
            if (hit) continue;
            InsertRequest req;
            req.key = q;
            req.value = topic.answer;
            req.staticity = topic.staticity;
            req.initial_frequency = 1;
            const double i0 = Now();
            engine.Insert(std::move(req));
            in[t].push_back(Now() - i0);
          }
        });
      }
      for (auto& th : pool) th.join();
      std::vector<double> all_lk, all_in;
      for (std::size_t t = 0; t < threads; ++t) {
        all_lk.insert(all_lk.end(), lk[t].begin(), lk[t].end());
        all_in.insert(all_in.end(), in[t].begin(), in[t].end());
      }
      std::printf("%9zu %7zu %10.1f %10.1f %10.1f %10.1f %9zu %8zu %9.2f\n",
                  engine.TotalSize(), threads, Median(all_lk) * 1e6,
                  Quantile(all_lk, 0.99) * 1e6, Median(all_in) * 1e6,
                  Quantile(all_in, 0.99) * 1e6, all_lk.size(), all_in.size(),
                  seed_s);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "serve_bench: %s\n", error.c_str());
    return 2;
  }
  if (args.report == "resident") return RunResidentReport(args);
  if (!args.report.empty()) {
    std::fprintf(stderr, "serve_bench: unknown --report '%s'\n",
                 args.report.c_str());
    return 2;
  }
  const auto spec = SpecFor(args.workload);
  if (!spec) {
    std::fprintf(stderr,
                 "serve_bench: unknown --workload '%s' "
                 "(hot_small|scan_large|churn)\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? RunTraced(*spec, args) : RunUntraced(*spec, args);
}
