// cortex_loadgen: multi-threaded closed-loop load generator for cortexd.
//
// N client threads replay a workload trace's tool queries against a
// running server: LOOKUP each query, and on a miss fetch ground truth from
// the workload oracle (standing in for the remote service) and INSERT it —
// the same agent-side protocol the sim's resolver layer follows.  Reports
// wall-clock throughput, hit rate, answer correctness, and p50/p99/p999
// latency histograms.
//
//   cortexd       --workload=musique --tasks=1000 --port=8377 &
//   cortex_loadgen --workload=musique --tasks=1000 --port=8377 --threads=8
//
// Run both sides with identical workload flags: the worlds are rebuilt
// deterministically in each process (see serve/serving_world.h).
//
// Cluster mode: --endpoints=host:port,unix:PATH,... spreads the client
// threads round-robin over several frontends (routers or nodes), and
// --skew=S replays queries under zipf(S) popularity instead of one pass
// in task order — the skewed-key regime a consistent-hash ring has to
// absorb.  STATS/DUMPTRACE digests come from the first endpoint.
//
// Open-loop mode: --open-loop --arrival-rate=R replaces the closed loop
// with Poisson arrivals at R req/s aggregate (split evenly across the
// client threads, each sampling exponential inter-arrival gaps).  Latency
// is measured from the SCHEDULED arrival, not the send, so queueing delay
// from a lagging server shows up in the tail instead of silently
// throttling the offered load — the standard open-loop correction for
// coordinated omission.
//
// Multi-tenant mode: --tenants=N tags every request with a tenant id
// ("t0".."tN-1") and speaks TLOOKUP/TINSERT instead of LOOKUP/INSERT;
// --tenant-skew=S samples the tenant per request from zipf(S) (rank 0
// hottest) so one hot tenant hammers its quota while the rest trickle.
// The report adds a per-tenant table — hit rate, BUSY count, and p99 —
// the isolation frontier: the hot tenant saturating its budget must not
// degrade everyone else's hit rate or tail latency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "serve/client.h"
#include "serve/serving_world.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace cortex;
using namespace cortex::serve;

namespace {

// Per-tenant slice of the run (only populated under --tenants).
struct TenantStats {
  Histogram lookup_latency;  // seconds
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t busy = 0;

  void Merge(const TenantStats& other) {
    lookup_latency.Merge(other.lookup_latency);
    hits += other.hits;
    misses += other.misses;
    busy += other.busy;
  }
};

struct ThreadResult {
  Histogram lookup_latency;  // seconds
  Histogram insert_latency;  // seconds
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t wrong_hits = 0;   // hit whose value fails the oracle check
  std::uint64_t busy = 0;
  std::uint64_t inserts_ok = 0;
  std::uint64_t inserts_rejected = 0;
  std::uint64_t protocol_errors = 0;
  std::string first_error;
  std::vector<TenantStats> tenants;  // indexed by tenant rank

  void Merge(const ThreadResult& other) {
    lookup_latency.Merge(other.lookup_latency);
    insert_latency.Merge(other.insert_latency);
    hits += other.hits;
    misses += other.misses;
    wrong_hits += other.wrong_hits;
    busy += other.busy;
    inserts_ok += other.inserts_ok;
    inserts_rejected += other.inserts_rejected;
    protocol_errors += other.protocol_errors;
    if (first_error.empty()) first_error = other.first_error;
    if (tenants.size() < other.tenants.size()) {
      tenants.resize(other.tenants.size());
    }
    for (std::size_t i = 0; i < other.tenants.size(); ++i) {
      tenants[i].Merge(other.tenants[i]);
    }
  }
};

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NoteError(ThreadResult& r, const std::string& error) {
  ++r.protocol_errors;
  if (r.first_error.empty()) r.first_error = error;
}

std::string Ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e3);
  return buf;
}

std::string StatValue(const Response& stats, std::string_view key) {
  for (const auto& [k, v] : stats.stats) {
    if (k == key) return v;
  }
  return "-";
}

bool Connect(BlockingClient& client, const cluster::NodeEndpoint& ep,
             std::string* err) {
  return ep.unix_path.empty() ? client.ConnectTcp(ep.host, ep.port, err)
                              : client.ConnectUnix(ep.unix_path, err);
}

// One STATS round trip on a fresh connection (used by the mid-run monitor
// and the end-of-run registry printout).
std::optional<Response> FetchStats(const cluster::NodeEndpoint& ep,
                                   std::string* err) {
  BlockingClient client;
  if (!Connect(client, ep, err)) return std::nullopt;
  Request stats;
  stats.type = RequestType::kStats;
  auto response = client.Call(stats, err);
  if (!response || response->type != ResponseType::kStats) {
    if (err && err->empty()) *err = "unexpected STATS response";
    return std::nullopt;
  }
  return response;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto threads =
      static_cast<std::size_t>(std::max<std::int64_t>(
          1, flags.GetInt("threads", 4)));
  const bool insert_on_miss = flags.GetBool("insert-on-miss", true);
  const std::string unix_path = flags.GetString("unix");
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int port = static_cast<int>(flags.GetInt("port", 8377));
  const double skew = flags.GetDouble("skew", 0.0);
  const bool open_loop = flags.GetBool("open-loop", false);
  const double arrival_rate = flags.GetDouble("arrival-rate", 0.0);
  if (open_loop && arrival_rate <= 0.0) {
    std::cerr << "cortex_loadgen: --open-loop needs --arrival-rate=R > 0\n";
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const auto tenant_count = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.GetInt("tenants", 0)));
  const double tenant_skew = flags.GetDouble("tenant-skew", 1.1);

  // Cluster mode: client threads spread round-robin over the endpoint
  // list; otherwise everyone hits the single --unix / --host:--port.
  std::vector<cluster::NodeEndpoint> endpoints;
  {
    const std::string list = flags.GetString("endpoints");
    std::size_t start = 0;
    while (start < list.size()) {
      auto comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      if (comma > start) {
        std::string eperr;
        const auto ep =
            cluster::ParseEndpoint(list.substr(start, comma - start), &eperr);
        if (!ep) {
          std::cerr << "cortex_loadgen: --endpoints: " << eperr << "\n";
          return 1;
        }
        endpoints.push_back(*ep);
      }
      start = comma + 1;
    }
    if (endpoints.empty()) {
      cluster::NodeEndpoint ep;
      ep.unix_path = unix_path;
      ep.host = host;
      ep.port = port;
      endpoints.push_back(ep);
    }
  }

  std::string error;
  const auto world = BuildServingWorld(flags, &error);
  if (!world) {
    std::cerr << "cortex_loadgen: " << error << "\n";
    return 1;
  }

  // The replayed request stream: every tool query of every task, in task
  // order, optionally capped by --requests.
  std::vector<const std::string*> queries;
  for (const auto& task : world->bundle.tasks) {
    for (const auto& step : task.steps) queries.push_back(&step.query);
  }
  const auto cap = static_cast<std::size_t>(
      flags.GetInt("requests", static_cast<std::int64_t>(queries.size())));
  queries.resize(std::min(cap, queries.size()));
  if (queries.empty()) {
    std::cerr << "cortex_loadgen: workload has no queries\n";
    return 1;
  }

  // Skewed replay: zipf(S) over query ranks (rank 0 hottest), the key
  // popularity a cluster's ring has to absorb without hot-spotting.
  std::optional<ZipfSampler> zipf;
  if (skew > 0.0) zipf.emplace(queries.size(), skew);

  // Tenant sampling: zipf over tenant ranks ("t0" hottest); skew <= 0
  // degrades to near-uniform via a tiny exponent.
  std::optional<ZipfSampler> tenant_zipf;
  if (tenant_count > 1) {
    tenant_zipf.emplace(tenant_count, std::max(tenant_skew, 1e-6));
  }
  std::vector<std::string> tenant_ids;
  tenant_ids.reserve(tenant_count);
  for (std::size_t i = 0; i < tenant_count; ++i) {
    tenant_ids.push_back(std::string("t").append(std::to_string(i)));
  }

  const GroundTruthOracle& oracle = *world->bundle.oracle;
  std::mutex merge_mu;
  ThreadResult total;
  std::vector<std::thread> pool;
  const double start = NowSec();

  // Mid-run monitor: every --stats-interval seconds, fetch STATS over its
  // own connection and print a one-line live digest of the server's
  // telemetry registry (the acceptance path for "queryable while
  // serving").
  const double stats_interval = flags.GetDouble("stats-interval", 0.0);
  std::atomic<bool> monitor_stop{false};
  std::thread monitor;
  if (stats_interval > 0.0) {
    monitor = std::thread([&] {
      const auto period = std::chrono::duration<double>(stats_interval);
      while (!monitor_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(period);
        if (monitor_stop.load(std::memory_order_acquire)) break;
        std::string merr;
        const auto stats = FetchStats(endpoints.front(), &merr);
        if (!stats) {
          std::fprintf(stderr, "[monitor] STATS failed: %s\n", merr.c_str());
          continue;
        }
        std::fprintf(
            stderr,
            "[monitor t=%.1fs] hits=%s misses=%s judger_rejects=%s "
            "evictions=%s probe_p50=%ss probe_p99=%ss e2e_p50=%ss "
            "e2e_p99=%ss queue_depth=%s\n",
            NowSec() - start, StatValue(*stats, "cortex_engine_hits").c_str(),
            StatValue(*stats, "cortex_engine_misses").c_str(),
            StatValue(*stats, "cortex_engine_judger_rejects").c_str(),
            StatValue(*stats, "cortex_cache_evictions").c_str(),
            StatValue(*stats, "cortex_engine_probe_seconds_p50").c_str(),
            StatValue(*stats, "cortex_engine_probe_seconds_p99").c_str(),
            StatValue(*stats, "cortex_server_request_seconds_p50").c_str(),
            StatValue(*stats, "cortex_server_request_seconds_p99").c_str(),
            StatValue(*stats, "cortex_server_queue_depth").c_str());
      }
    });
  }

  for (std::size_t tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      ThreadResult local;
      local.tenants.resize(tenant_count);
      BlockingClient client;
      std::string err;
      Rng rng(seed * 0x9e3779b97f4a7c15ULL + tid);
      // Open loop: this thread owns a 1/threads slice of the aggregate
      // Poisson process; arrivals are scheduled ahead of time and never
      // pushed back by a slow response.
      const double per_thread_rate =
          open_loop ? arrival_rate / static_cast<double>(threads) : 0.0;
      double next_arrival = start;
      if (!Connect(client, endpoints[tid % endpoints.size()], &err)) {
        NoteError(local, "connect: " + err);
      } else {
        for (std::size_t n = tid; n < queries.size(); n += threads) {
          if (open_loop) {
            next_arrival += rng.Exponential(per_thread_rate);
            const double now = NowSec();
            if (next_arrival > now) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(next_arrival - now));
            }
          }
          const std::size_t qi = zipf ? zipf->Sample(rng) : n;
          const std::string& query = *queries[qi];
          std::size_t trank = 0;
          TenantStats* tstats = nullptr;
          Request lookup;
          if (tenant_count > 0) {
            trank = tenant_zipf ? tenant_zipf->Sample(rng) : 0;
            tstats = &local.tenants[trank];
            lookup.type = RequestType::kTenantLookup;
            lookup.tenant = tenant_ids[trank];
          } else {
            lookup.type = RequestType::kLookup;
          }
          lookup.query = query;
          // Open loop measures from the scheduled arrival (coordinated
          // omission correction); closed loop from the send.
          const double t0 = open_loop ? next_arrival : NowSec();
          const auto response = client.Call(lookup, &err);
          const double lookup_sec = NowSec() - t0;
          local.lookup_latency.Add(lookup_sec);
          if (tstats != nullptr) tstats->lookup_latency.Add(lookup_sec);
          if (!response) {
            NoteError(local, "lookup: " + err);
            break;  // transport is gone
          }
          switch (response->type) {
            case ResponseType::kHit:
              ++local.hits;
              if (tstats != nullptr) ++tstats->hits;
              if (!oracle.InfoCorrect(query, response->value)) {
                ++local.wrong_hits;
              }
              continue;
            case ResponseType::kMiss:
              ++local.misses;
              if (tstats != nullptr) ++tstats->misses;
              break;
            case ResponseType::kBusy:
              ++local.busy;
              if (tstats != nullptr) ++tstats->busy;
              continue;
            default:
              NoteError(local, "unexpected lookup response");
              continue;
          }
          if (!insert_on_miss) continue;
          // Miss path: fetch from the "remote service" (the oracle) and
          // populate the cache, as the agent application would.
          Request insert;
          if (tenant_count > 0) {
            insert.type = RequestType::kTenantInsert;
            insert.tenant = tenant_ids[trank];
          } else {
            insert.type = RequestType::kInsert;
          }
          insert.key = query;
          insert.value = oracle.ExpectedInfo(query);
          insert.staticity = oracle.Staticity(query);
          if (insert.value.empty()) continue;  // unknown query
          const double t1 = NowSec();
          const auto insert_response = client.Call(insert, &err);
          local.insert_latency.Add(NowSec() - t1);
          if (!insert_response) {
            NoteError(local, "insert: " + err);
            break;
          }
          switch (insert_response->type) {
            case ResponseType::kOk:
              ++local.inserts_ok;
              break;
            case ResponseType::kReject:
              ++local.inserts_rejected;
              break;
            case ResponseType::kBusy:
              ++local.busy;
              if (tstats != nullptr) ++tstats->busy;
              break;
            default:
              NoteError(local, "unexpected insert response");
              break;
          }
        }
      }
      std::lock_guard<std::mutex> lk(merge_mu);
      total.Merge(local);
    });
  }
  for (auto& t : pool) t.join();
  const double wall = NowSec() - start;
  monitor_stop.store(true, std::memory_order_release);
  if (monitor.joinable()) monitor.join();

  // The histograms count one entry per wire round-trip, so they are the
  // exact op counts (BUSY responses included, whichever op drew them).
  const std::uint64_t lookups = total.lookup_latency.count();
  const std::uint64_t requests = lookups + total.insert_latency.count();
  const double hit_rate =
      (total.hits + total.misses)
          ? static_cast<double>(total.hits) /
                static_cast<double>(total.hits + total.misses)
          : 0.0;

  std::cout << "=== cortex_loadgen: " << world->bundle.name << " x "
            << queries.size() << " queries, " << threads
            << " client threads ===\n\n";
  TextTable summary({"metric", "value"});
  summary.AddRow({"wall clock (s)", TextTable::Num(wall, 2)});
  summary.AddRow({"requests", std::to_string(requests)});
  summary.AddRow(
      {"throughput (req/s)",
       TextTable::Num(wall > 0 ? static_cast<double>(requests) / wall : 0.0,
                      1)});
  if (open_loop) {
    summary.AddRow({"offered rate (req/s)", TextTable::Num(arrival_rate, 1)});
  }
  summary.AddRow({"lookups", std::to_string(lookups)});
  summary.AddRow({"hit rate", TextTable::Percent(hit_rate)});
  summary.AddRow({"wrong hits", std::to_string(total.wrong_hits)});
  summary.AddRow({"inserts ok / rejected",
                  std::to_string(total.inserts_ok) + " / " +
                      std::to_string(total.inserts_rejected)});
  summary.AddRow({"busy responses", std::to_string(total.busy)});
  summary.AddRow({"protocol errors", std::to_string(total.protocol_errors)});
  summary.Print(std::cout, /*csv=*/false);

  std::cout << "\nlatency (ms):\n";
  TextTable latency({"op", "count", "p50", "p90", "p99", "p999", "max"});
  for (const auto& [name, h] :
       {std::pair<const char*, const Histogram*>{"LOOKUP",
                                                 &total.lookup_latency},
        {"INSERT", &total.insert_latency}}) {
    if (h->count() == 0) continue;
    latency.AddRow({name, std::to_string(h->count()), Ms(h->p50()),
                    Ms(h->Quantile(0.90)), Ms(h->p99()),
                    Ms(h->Quantile(0.999)), Ms(h->max())});
  }
  latency.Print(std::cout, /*csv=*/false);

  // Isolation frontier: how each tenant fared.  Under --tenant-skew the
  // hot tenant (t0) saturates its quota (BUSY climbs) while the cold
  // tenants' hit rate and p99 should hold steady.
  if (!total.tenants.empty()) {
    std::cout << "\nper-tenant (isolation frontier):\n";
    TextTable per_tenant(
        {"tenant", "lookups", "hit rate", "busy", "p50 ms", "p99 ms"});
    for (std::size_t i = 0; i < total.tenants.size(); ++i) {
      const TenantStats& t = total.tenants[i];
      const std::uint64_t settled = t.hits + t.misses;
      per_tenant.AddRow(
          {std::string("t").append(std::to_string(i)),
           std::to_string(t.lookup_latency.count()),
           settled ? TextTable::Percent(static_cast<double>(t.hits) /
                                        static_cast<double>(settled))
                   : "-",
           std::to_string(t.busy),
           t.lookup_latency.count() ? Ms(t.lookup_latency.p50()) : "-",
           t.lookup_latency.count() ? Ms(t.lookup_latency.p99()) : "-"});
    }
    per_tenant.Print(std::cout, /*csv=*/false);
  }

  // End-of-run registry printout: the server's full cortex_* telemetry as
  // seen over the wire.
  {
    std::string serr;
    const auto stats = FetchStats(endpoints.front(), &serr);
    if (stats) {
      std::cout << "\nserver telemetry (cortex_*):\n";
      TextTable registry({"metric", "value"});
      for (const auto& [k, v] : stats->stats) {
        if (k.rfind("cortex_", 0) == 0) registry.AddRow({k, v});
      }
      registry.Print(std::cout, /*csv=*/false);
    } else {
      std::cerr << "cortex_loadgen: end-of-run STATS failed: " << serr
                << "\n";
    }
  }

  // Recent request traces from the server's flight recorder.
  const auto dump_traces =
      static_cast<std::uint64_t>(flags.GetInt("dump-traces", 0));
  if (dump_traces > 0) {
    BlockingClient client;
    std::string terr;
    if (Connect(client, endpoints.front(), &terr)) {
      Request dump;
      dump.type = RequestType::kDumpTrace;
      dump.max_traces = dump_traces;
      const auto response = client.Call(dump, &terr);
      if (response && response->type == ResponseType::kTraces) {
        std::cout << "\nflight recorder (" << response->id
                  << " traces, newest first):\n"
                  << response->message;
      } else {
        std::cerr << "cortex_loadgen: DUMPTRACE failed: " << terr << "\n";
      }
    } else {
      std::cerr << "cortex_loadgen: DUMPTRACE connect failed: " << terr
                << "\n";
    }
  }

  if (total.protocol_errors > 0) {
    std::cerr << "\nFAIL: " << total.protocol_errors
              << " protocol errors (first: " << total.first_error << ")\n";
    return 1;
  }
  return 0;
}
