// CortexServer: the multi-threaded serving front of cortexd.
//
// Threading model:
//   * one acceptor thread accepts connections and pushes them onto a
//     bounded queue (overflow => the client gets one BUSY frame and is
//     disconnected — connection-level backpressure);
//   * a fixed pool of worker threads pops connections and serves each one
//     to completion (read frames -> execute -> write responses);
//   * per connection, decoded-but-unprocessed requests are bounded by
//     max_pipeline — requests beyond the bound are answered BUSY without
//     being executed (request-level backpressure);
//   * a server-wide token bucket (net/rate_limiter) caps the sustained
//     LOOKUP/INSERT rate — requests over quota are answered BUSY.
//
// Shutdown is graceful: Stop() closes the listener, wakes every worker,
// lets in-flight requests finish, and joins all threads.  Drain()
// goes further for restarts during cluster rebalance: it stops accepting,
// lets every live connection answer the requests already on the wire, and
// only then stops — no response is ever truncated mid-frame.  cortexd
// calls Drain() from its SIGINT handler path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "net/rate_limiter.h"
#include "serve/concurrent_engine.h"
#include "serve/protocol.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/ranked_mutex.h"
#include "util/thread_annotations.h"

namespace cortex::serve {

struct ServerOptions {
  // Listen on a Unix-domain socket when non-empty; otherwise TCP.
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = kernel-assigned; read back via port()

  std::size_t num_workers = 4;
  // Bounded acceptor->worker connection queue.
  std::size_t max_pending_connections = 64;
  // Bounded per-connection decoded-request queue.
  std::size_t max_pipeline = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  // Sustained LOOKUP+INSERT admission rate (req/s); <= 0 disables the
  // bucket.  PING/STATS are never rate limited.
  double max_requests_per_sec = 0.0;
  double rate_burst = 128.0;

  // Ignored: the server has no cross-request batching (DESIGN.md §14);
  // every lookup runs on its connection worker.  Declared only so existing
  // callers that still assign them keep compiling.
  std::size_t max_pipeline_batch = 1;
  std::uint64_t batch_window_us = 200;
  std::size_t pipeline_threads = 2;

  // Flight recorder: how many completed request traces to retain for
  // DUMPTRACE.
  std::size_t flight_recorder_capacity = 256;
  // Registry to publish cortex_server_* instruments into; when null the
  // server shares the engine's registry (the usual arrangement — one
  // registry, one STATS dump).
  telemetry::MetricRegistry* registry = nullptr;
};

// Thin snapshot view over the registry's cortex_server_* counters (kept so
// existing callers — cortexd's final printout, tests — stay source
// compatible; the registry is the single source of truth).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // queue-full BUSY disconnects
  std::uint64_t requests_served = 0;       // executed (any response)
  std::uint64_t requests_busy = 0;         // BUSY responses (rate/pipeline)
  std::uint64_t protocol_errors = 0;       // parse failures, truncation,
                                           // oversized frames
};

class CortexServer {
 public:
  // The engine is borrowed and must outlive the server.
  CortexServer(ConcurrentShardedEngine* engine, ServerOptions options = {});
  ~CortexServer();

  CortexServer(const CortexServer&) = delete;
  CortexServer& operator=(const CortexServer&) = delete;

  // Binds, listens, and spawns the acceptor + workers.  Returns false and
  // fills `error` on failure.
  bool Start(std::string* error = nullptr);
  void Stop();

  // Graceful shutdown: stop accepting, let every live connection finish
  // answering the requests already received (each worker flushes its
  // responses and closes once its connection goes idle), then Stop().
  // Waits up to `timeout_sec` for active connections to wind down before
  // forcing the stop.  Idempotent; safe from any thread.
  void Drain(double timeout_sec = 5.0);

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }
  // Resolved TCP port (0 when serving a Unix socket or not started).
  int port() const noexcept { return port_; }
  const ServerOptions& options() const noexcept { return options_; }
  ServerStats stats() const;

  // The registry this server publishes into (options().registry or the
  // engine's).  Valid for the server's lifetime.
  telemetry::MetricRegistry* registry() const noexcept { return registry_; }
  const telemetry::FlightRecorder& flight_recorder() const noexcept {
    return recorder_;
  }

 private:
  void AcceptLoop() EXCLUDES(queue_mu_);
  // Waits on queue_cv_ through a std::unique_lock, which clang's analysis
  // cannot see through — excluded from analysis, lock order still
  // machine-checked by RankedMutex.
  void WorkerLoop() NO_THREAD_SAFETY_ANALYSIS;
  void ServeConnection(int fd);
  // Executes one parsed request against the engine; `trace` collects the
  // request's spans.
  Response Execute(const Request& request, telemetry::RequestTrace* trace);
  Response BuildStats();
  Response BuildTraces(std::uint64_t max_traces);
  // Token-bucket gate over LOOKUP/INSERT (the rate-limiter critical
  // section; PING/STATS bypass it).
  bool AdmitRequest(const Request& request) EXCLUDES(bucket_mu_);

  ConcurrentShardedEngine* const engine_;
  const ServerOptions options_;

  // Listener state is written only during Start()/Stop(), strictly
  // before the worker threads exist / after they have joined, so no lock
  // guards it (cortex_analyzer verifies the rest of this class).
  int listen_fd_ = -1;         // cortex-analyzer: allow(guarded-by)
  int port_ = 0;               // cortex-analyzer: allow(guarded-by)
  std::string bound_unix_path_;  // cortex-analyzer: allow(guarded-by)

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  // Drain-coordination state, not a stat (Drain() spins on it reaching
  // zero) — the registry is for observability, not control flow.
  std::atomic<std::int64_t> active_connections_{0};  // cortex-lint: allow(atomic-counter)

  // Lock order (ranks checked in debug builds, table in DESIGN.md §7):
  // queue_mu_ (10) < bucket_mu_ (20) < the engine's locks (30-50).
  RankedMutex queue_mu_{LockRank::kServerQueue, "server.queue_mu"};
  // condition_variable_any: waits through RankedMutex's lock/unlock, so
  // the held-rank stack stays correct across the wait.
  std::condition_variable_any queue_cv_;
  std::deque<int> conn_queue_ GUARDED_BY(queue_mu_);

  RankedMutex bucket_mu_{LockRank::kServerBucket, "server.bucket_mu"};
  TokenBucket bucket_ GUARDED_BY(bucket_mu_);

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Registry handles (cortex_server_*), resolved once in the constructor;
  // hot-path updates are pure atomics.
  telemetry::MetricRegistry* registry_ = nullptr;
  telemetry::Counter* connections_accepted_ = nullptr;
  telemetry::Counter* connections_rejected_ = nullptr;
  telemetry::Counter* requests_served_ = nullptr;
  telemetry::Counter* requests_busy_ = nullptr;
  telemetry::Counter* protocol_errors_ = nullptr;
  telemetry::Counter* hellos_ = nullptr;
  telemetry::Counter* hello_rejects_ = nullptr;
  telemetry::Counter* snapshots_streamed_ = nullptr;
  telemetry::Counter* snapshot_bytes_ = nullptr;
  telemetry::Counter* restores_applied_ = nullptr;
  telemetry::Counter* restore_entries_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;
  telemetry::AtomicHistogram* request_seconds_ = nullptr;

  telemetry::FlightRecorder recorder_;
};

}  // namespace cortex::serve
