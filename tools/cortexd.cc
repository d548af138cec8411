// cortexd: the Cortex cache server.  Runs the concurrent sharded engine
// behind the length-prefixed wire protocol (serve/protocol.h) on TCP or a
// Unix-domain socket, and shuts down gracefully on SIGINT/SIGTERM.
//
//   cortexd --workload=musique --tasks=1000 --shards=4 --workers=4
//           --port=8377 --cache-ratio=0.4
//   cortexd --unix=/tmp/cortexd.sock --rate-limit=200
//
// The workload flags pick which deterministic world the server judges
// against (see serve/serving_world.h) — run cortex_loadgen with the same
// workload flags on the other side.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <thread>

#include "embedding/simd_kernels.h"
#include "serve/concurrent_engine.h"
#include "serve/server.h"
#include "serve/serving_world.h"
#include "telemetry/metrics.h"
#include "util/flags.h"

using namespace cortex;
using namespace cortex::serve;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

void PrintUsage() {
  std::cout <<
      "cortexd — Cortex cache server\n"
      "  workload:  --workload=musique|zilliz|hotpotqa|2wiki|strategyqa|"
      "swebench\n"
      "             --tasks=1000 --seed=S | --trace=PATH\n"
      "  engine:    --shards=4 --cache-ratio=0.4 --housekeeping-sec=1\n"
      "             --recalibrate-sec=0 (0 = off)\n"
      "  tenancy:   --tenant-budget-fraction=1 (per-tenant share of each\n"
      "             shard's capacity; >=1 = unlimited)\n"
      "             --tenant-rate-limit=0 (req/s per tenant, 0 = unlimited)\n"
      "             --tenant-rate-burst=64\n"
      "             --tenant-promote-k=0 (distinct tenants required to\n"
      "             graduate an SE to the shared pool; 0 = promotion off)\n"
      "             --tenant-promote-staticity=8 (min staticity to promote)\n"
      "  listen:    --port=8377 (--port=0 for ephemeral) --host=127.0.0.1\n"
      "             --unix=PATH (overrides TCP)\n"
      "  serving:   --workers=4 --rate-limit=0 (req/s, 0 = unlimited)\n"
      "             --max-pending=64 --max-pipeline=64\n"
      "             --max-frame-mb=64 (largest accepted frame; cluster\n"
      "             RESTORE blobs need headroom) --drain-sec=5\n"
      "  telemetry: --metrics-interval=0 (sec between registry dumps, "
      "0 = off)\n"
      "             --metrics-file=PATH (append dumps there instead of "
      "stderr)\n"
      "             --flight-recorder=256 (traces retained for DUMPTRACE)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("help")) {
    PrintUsage();
    return 0;
  }

  std::string error;
  auto world = BuildServingWorld(flags, &error);
  if (!world) {
    std::cerr << "cortexd: " << error << "\n";
    return 1;
  }

  ConcurrentEngineOptions eopts;
  eopts.num_shards = static_cast<std::size_t>(flags.GetInt("shards", 4));
  eopts.cache.capacity_tokens = flags.GetDouble("cache-ratio", 0.4) *
                                world->bundle.TotalKnowledgeTokens();
  eopts.housekeeping_interval_sec = flags.GetDouble("housekeeping-sec", 1.0);
  eopts.recalibration_interval_sec = flags.GetDouble("recalibrate-sec", 0.0);
  eopts.tenants.default_quota.budget_fraction =
      flags.GetDouble("tenant-budget-fraction", 1.0);
  eopts.tenants.default_quota.rate_per_sec =
      flags.GetDouble("tenant-rate-limit", 0.0);
  eopts.tenants.default_quota.rate_burst =
      flags.GetDouble("tenant-rate-burst", 64.0);
  eopts.cache.promote_distinct_tenants =
      static_cast<std::size_t>(flags.GetInt("tenant-promote-k", 0));
  eopts.cache.promote_min_staticity =
      flags.GetDouble("tenant-promote-staticity", 8.0);
  ConcurrentShardedEngine engine(&world->embedder, world->judger.get(),
                                 eopts);
  // Recalibration fetches ground truth the way production fetches from the
  // remote service: through the workload's oracle.
  engine.SetGroundTruthFetcher(
      [oracle = world->bundle.oracle](std::string_view query) {
        return oracle->ExpectedInfo(query);
      });

  ServerOptions sopts;
  sopts.unix_path = flags.GetString("unix");
  sopts.host = flags.GetString("host", "127.0.0.1");
  sopts.port = static_cast<int>(flags.GetInt("port", 8377));
  sopts.num_workers = static_cast<std::size_t>(flags.GetInt("workers", 4));
  sopts.max_pending_connections =
      static_cast<std::size_t>(flags.GetInt("max-pending", 64));
  sopts.max_pipeline =
      static_cast<std::size_t>(flags.GetInt("max-pipeline", 64));
  sopts.max_requests_per_sec = flags.GetDouble("rate-limit", 0.0);
  sopts.max_frame_bytes =
      static_cast<std::size_t>(flags.GetInt("max-frame-mb", 64)) << 20;
  sopts.flight_recorder_capacity =
      static_cast<std::size_t>(flags.GetInt("flight-recorder", 256));

  CortexServer server(&engine, sopts);
  if (!server.Start(&error)) {
    std::cerr << "cortexd: " << error << "\n";
    return 1;
  }

  // Periodic registry dump: Prometheus-style text to stderr (or appended
  // to --metrics-file), on its own thread so serving is never blocked.
  const double metrics_interval = flags.GetDouble("metrics-interval", 0.0);
  const std::string metrics_file = flags.GetString("metrics-file");
  std::atomic<bool> metrics_stop{false};
  std::thread metrics_thread;
  if (metrics_interval > 0.0) {
    metrics_thread = std::thread([&] {
      const auto period = std::chrono::duration<double>(metrics_interval);
      while (!metrics_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(period);
        if (metrics_stop.load(std::memory_order_acquire)) break;
        const std::string text = server.registry()->Snapshot().RenderText();
        if (metrics_file.empty()) {
          std::fprintf(stderr, "--- metrics t=%.1fs ---\n%s",
                       telemetry::WallSeconds(), text.c_str());
        } else if (std::FILE* f = std::fopen(metrics_file.c_str(), "a")) {
          std::fprintf(f, "--- metrics t=%.1fs ---\n%s",
                       telemetry::WallSeconds(), text.c_str());
          std::fclose(f);
        }
      }
    });
  }

  if (!sopts.unix_path.empty()) {
    std::cout << "cortexd listening on unix:" << sopts.unix_path;
  } else {
    std::cout << "cortexd listening on " << sopts.host << ":"
              << server.port();
  }
  std::cout << "  (workload=" << world->bundle.name
            << ", shards=" << eopts.num_shards
            << ", workers=" << sopts.num_workers << ", capacity="
            << static_cast<long long>(eopts.cache.capacity_tokens)
            << " tokens, simd="
            << simd::VariantName(simd::ActiveVariant()) << ")\n"
            << "Ctrl-C to stop.\n"
            << std::flush;

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::cout << "\ncortexd: draining...\n";
  // Drain, don't yank: in-flight requests get their responses flushed
  // before the sockets close, so a restart mid-rebalance never truncates a
  // frame a migration peer is waiting on.
  server.Drain(flags.GetDouble("drain-sec", 5.0));
  metrics_stop.store(true, std::memory_order_release);
  if (metrics_thread.joinable()) metrics_thread.join();
  engine.StopHousekeeping();

  // Final registry flush: the last dump lands in --metrics-file even when
  // the periodic thread never ticked between the signal and the exit.
  if (!metrics_file.empty()) {
    if (std::FILE* f = std::fopen(metrics_file.c_str(), "a")) {
      std::fprintf(f, "--- metrics t=%.1fs (final) ---\n%s",
                   telemetry::WallSeconds(),
                   server.registry()->Snapshot().RenderText().c_str());
      std::fflush(f);
      std::fclose(f);
    }
  }

  const ServerStats ss = server.stats();
  const ConcurrentEngineStats es = engine.Stats();
  std::printf(
      "connections: %llu accepted, %llu rejected\n"
      "requests:    %llu served, %llu busy, %llu protocol errors\n"
      "engine:      %llu lookups (%llu hits, %.1f%%), %llu inserts, "
      "%llu entries resident\n"
      "background:  %llu housekeeping runs, %llu expired removed, "
      "%llu recalibrations\n",
      static_cast<unsigned long long>(ss.connections_accepted),
      static_cast<unsigned long long>(ss.connections_rejected),
      static_cast<unsigned long long>(ss.requests_served),
      static_cast<unsigned long long>(ss.requests_busy),
      static_cast<unsigned long long>(ss.protocol_errors),
      static_cast<unsigned long long>(es.lookups),
      static_cast<unsigned long long>(es.hits),
      es.lookups ? 100.0 * static_cast<double>(es.hits) /
                       static_cast<double>(es.lookups)
                 : 0.0,
      static_cast<unsigned long long>(es.inserts),
      static_cast<unsigned long long>(engine.TotalSize()),
      static_cast<unsigned long long>(es.housekeeping_runs),
      static_cast<unsigned long long>(es.expired_removed),
      static_cast<unsigned long long>(es.recalibrations));
  std::printf("--- final metrics ---\n%s",
              server.registry()->Snapshot().RenderText().c_str());
  return 0;
}
