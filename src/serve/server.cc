#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

namespace cortex::serve {

namespace {

std::string Errno(std::string_view what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::string FormatDouble(double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.6g", v);
  return std::string(buf, static_cast<std::size_t>(n));
}

Response MakeResponse(ResponseType type) {
  Response r;
  r.type = type;
  return r;
}

telemetry::TraceOp TraceOpFor(RequestType type) {
  switch (type) {
    case RequestType::kLookup:
    case RequestType::kTenantLookup:
      return telemetry::TraceOp::kLookup;
    case RequestType::kInsert:
    case RequestType::kTenantInsert:
      return telemetry::TraceOp::kInsert;
    case RequestType::kStats:
      return telemetry::TraceOp::kStats;
    case RequestType::kDumpTrace:
      return telemetry::TraceOp::kDumpTrace;
    case RequestType::kPing:
      return telemetry::TraceOp::kPing;
    case RequestType::kHello:
    case RequestType::kSnapshot:
    case RequestType::kRestore:
    case RequestType::kMigrate:
    case RequestType::kCluster:
      return telemetry::TraceOp::kOther;
  }
  return telemetry::TraceOp::kOther;
}

telemetry::TraceOutcome TraceOutcomeFor(ResponseType type) {
  switch (type) {
    case ResponseType::kHit:
      return telemetry::TraceOutcome::kHit;
    case ResponseType::kMiss:
      return telemetry::TraceOutcome::kMiss;
    case ResponseType::kOk:
    case ResponseType::kPong:
    case ResponseType::kStats:
    case ResponseType::kTraces:
    case ResponseType::kWelcome:
    case ResponseType::kSnapshotData:
      return telemetry::TraceOutcome::kOk;
    case ResponseType::kReject:
      return telemetry::TraceOutcome::kReject;
    case ResponseType::kBusy:
      return telemetry::TraceOutcome::kBusy;
    case ResponseType::kError:
      return telemetry::TraceOutcome::kError;
  }
  return telemetry::TraceOutcome::kUnknown;
}

// Writes the whole buffer, tolerating partial writes; false on error.
bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void SendOneFrame(int fd, const Response& response) {
  std::string out;
  AppendFrame(EncodePayload(response), out);
  SendAll(fd, out);
}

}  // namespace

CortexServer::CortexServer(ConcurrentShardedEngine* engine,
                           ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      bucket_(options_.max_requests_per_sec > 0.0
                  ? TokenBucket(options_.max_requests_per_sec,
                                options_.rate_burst)
                  : UnlimitedBucket()),
      recorder_(options_.flight_recorder_capacity) {
  registry_ = options_.registry != nullptr ? options_.registry
                                           : engine_->registry();
  connections_accepted_ =
      registry_->GetCounter("cortex_server_connections_accepted");
  connections_rejected_ =
      registry_->GetCounter("cortex_server_connections_rejected");
  requests_served_ = registry_->GetCounter("cortex_server_requests_served");
  requests_busy_ = registry_->GetCounter("cortex_server_requests_busy");
  protocol_errors_ = registry_->GetCounter("cortex_server_protocol_errors");
  hellos_ = registry_->GetCounter("cortex_server_hellos");
  hello_rejects_ = registry_->GetCounter("cortex_server_hello_rejects");
  snapshots_streamed_ =
      registry_->GetCounter("cortex_server_snapshots_streamed");
  snapshot_bytes_ = registry_->GetCounter("cortex_server_snapshot_bytes");
  restores_applied_ = registry_->GetCounter("cortex_server_restores_applied");
  restore_entries_ = registry_->GetCounter("cortex_server_restore_entries");
  queue_depth_ = registry_->GetGauge("cortex_server_queue_depth");
  request_seconds_ =
      registry_->GetHistogram("cortex_server_request_seconds");
  {
    MutexLock lock(bucket_mu_);
    bucket_.BindTelemetry(registry_->GetGauge("cortex_ratelimit_tokens"),
                          registry_->GetCounter("cortex_ratelimit_throttled"));
  }
}

CortexServer::~CortexServer() { Stop(); }

bool CortexServer::Start(std::string* error) {
  if (running_.load()) return true;

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    if (options_.unix_path.size() >= sizeof addr.sun_path) {
      if (error) *error = "unix socket path too long";
      return false;
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error) *error = Errno("socket");
      return false;
    }
    ::unlink(options_.unix_path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      if (error) *error = Errno("bind(" + options_.unix_path + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    bound_unix_path_ = options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error) *error = Errno("socket");
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      if (error) *error = "bad host " + options_.host;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      if (error) *error = Errno("bind(" + options_.host + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }

  if (::listen(listen_fd_, 128) < 0) {
    if (error) *error = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  stopping_.store(false);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void CortexServer::Drain(double timeout_sec) {
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  const double deadline = telemetry::WallSeconds() + timeout_sec;
  for (;;) {
    std::size_t queued = 0;
    {
      MutexLock lock(queue_mu_);
      queued = conn_queue_.size();
    }
    if (queued == 0 &&
        active_connections_.load(std::memory_order_acquire) == 0) {
      break;
    }
    if (telemetry::WallSeconds() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Stop();
}

void CortexServer::Stop() {
  if (!running_.exchange(false)) return;
  {
    // Set under queue_mu_: a worker between its predicate check and the
    // wait then either sees the flag or is already waiting when the
    // notify fires — a bare store could land in that gap and the notify
    // be lost, leaving the join below to hang.
    MutexLock lock(queue_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Connections still queued never reached a worker; drop them.
  std::deque<int> leftover;
  {
    MutexLock lock(queue_mu_);
    leftover.swap(conn_queue_);
  }
  for (int fd : leftover) ::close(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!bound_unix_path_.empty()) {
    ::unlink(bound_unix_path_.c_str());
    bound_unix_path_.clear();
  }
}

void CortexServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_accepted_->Inc();
    bool rejected = false;
    {
      MutexLock lock(queue_mu_);
      if (conn_queue_.size() >= options_.max_pending_connections) {
        rejected = true;
      } else {
        conn_queue_.push_back(fd);
        queue_depth_->Set(static_cast<double>(conn_queue_.size()));
      }
    }
    if (rejected) {
      // Connection-level backpressure: one BUSY frame, then disconnect.
      connections_rejected_->Inc();
      SendOneFrame(fd, MakeResponse(ResponseType::kBusy));
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void CortexServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<RankedMutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               !conn_queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      fd = conn_queue_.front();
      conn_queue_.pop_front();
      queue_depth_->Set(static_cast<double>(conn_queue_.size()));
    }
    ServeConnection(fd);
  }
}

void CortexServer::ServeConnection(int fd) {
  // Drain accounting: a connection counts as active from pickup to close,
  // so Drain() can wait for every in-flight response to flush.
  active_connections_.fetch_add(1, std::memory_order_acq_rel);
  struct ActiveGuard {
    std::atomic<std::int64_t>* n;  // cortex-lint: allow(atomic-counter)
    ~ActiveGuard() { n->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&active_connections_};

  FrameDecoder decoder(options_.max_frame_bytes);
  // Bounded per-connection request queue.  `overloaded` entries mark
  // frames that arrived past the bound: they are answered BUSY *in request
  // order* instead of being executed.
  struct PendingFrame {
    bool overloaded = false;
    std::string payload;
    double decoded_at = 0.0;  // WallSeconds() — anchors the queue-wait span
  };
  std::deque<PendingFrame> pending;
  std::string outbuf;
  char buf[16 * 1024];
  bool done = false;

  while (!done && !stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      // Draining and the connection has gone idle for a tick: every
      // response already owed has been flushed (outbuf is written at the
      // end of each iteration), so closing here never truncates a frame.
      if (draining_.load(std::memory_order_acquire)) break;
      continue;
    }
    if (pfd.revents & (POLLERR | POLLNVAL)) break;

    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) {
      // Peer closed.  Mid-frame bytes mean a truncated frame.
      if (decoder.MidFrame()) {
        protocol_errors_->Inc();
      }
      break;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    decoder.Feed(std::string_view(buf, static_cast<std::size_t>(n)));

    outbuf.clear();
    std::string payload;
    for (;;) {
      const FrameDecoder::Status st = decoder.Next(&payload);
      if (st == FrameDecoder::Status::kNeedMore) break;
      if (st == FrameDecoder::Status::kOversized) {
        protocol_errors_->Inc();
        Response err = MakeResponse(ResponseType::kError);
        err.message = "frame exceeds " +
                      std::to_string(options_.max_frame_bytes) + " bytes";
        AppendFrame(EncodePayload(err), outbuf);
        done = true;  // the stream is unrecoverable past a bad length
        break;
      }
      if (pending.size() >= options_.max_pipeline) {
        // Request-level backpressure: the per-connection queue is full.
        pending.push_back({true, {}, 0.0});
        continue;
      }
      pending.push_back({false, std::move(payload), telemetry::WallSeconds()});
    }

    while (!pending.empty()) {
      const PendingFrame frame = std::move(pending.front());
      pending.pop_front();
      if (frame.overloaded) {
        requests_busy_->Inc();
        requests_served_->Inc();
        AppendFrame(EncodePayload(MakeResponse(ResponseType::kBusy)), outbuf);
        continue;
      }
      telemetry::RequestTrace trace;
      trace.start = frame.decoded_at;
      const double exec_t0 = telemetry::WallSeconds();
      trace.AddSpan(telemetry::TracePhase::kQueueWait, frame.decoded_at,
                    exec_t0 - frame.decoded_at);
      std::string parse_error;
      Response response;
      if (const auto request = ParseRequest(frame.payload, &parse_error)) {
        trace.op = TraceOpFor(request->type);
        if (request->type == RequestType::kLookup ||
            request->type == RequestType::kTenantLookup) {
          trace.SetQuery(request->query);
        } else if (request->type == RequestType::kInsert ||
                   request->type == RequestType::kTenantInsert) {
          trace.SetQuery(request->key);
        }
        if (AdmitRequest(*request)) {
          response = Execute(*request, &trace);
        } else {
          requests_busy_->Inc();
          response = MakeResponse(ResponseType::kBusy);
        }
      } else {
        protocol_errors_->Inc();
        response = MakeResponse(ResponseType::kError);
        response.message = parse_error;
      }
      requests_served_->Inc();
      trace.outcome = TraceOutcomeFor(response.type);
      trace.total = telemetry::WallSeconds() - trace.start;
      request_seconds_->Observe(trace.total);
      recorder_.Record(trace);
      AppendFrame(EncodePayload(response), outbuf);
    }

    if (!outbuf.empty() && !SendAll(fd, outbuf)) break;
  }
  ::close(fd);
}

bool CortexServer::AdmitRequest(const Request& request) {
  const bool metered = request.type == RequestType::kLookup ||
                       request.type == RequestType::kInsert ||
                       request.type == RequestType::kTenantLookup ||
                       request.type == RequestType::kTenantInsert;
  if (!metered) return true;
  if (options_.max_requests_per_sec > 0.0) {
    MutexLock lock(bucket_mu_);
    if (!bucket_.TryAcquire(engine_->Now())) return false;
  }
  // Tenant-scoped verbs additionally pass the per-tenant quota bucket, so
  // one hot tenant exhausts its own budget without starving the others.
  if (!request.tenant.empty()) {
    return engine_->tenant_registry()->AdmitRequest(request.tenant,
                                                    engine_->Now());
  }
  return true;
}

Response CortexServer::Execute(const Request& request,
                               telemetry::RequestTrace* trace) {
  switch (request.type) {
    case RequestType::kPing:
      return MakeResponse(ResponseType::kPong);
    case RequestType::kStats:
      return BuildStats();
    case RequestType::kDumpTrace:
      return BuildTraces(request.max_traces);
    case RequestType::kLookup:
    case RequestType::kTenantLookup: {
      // The probe runs right here on the connection worker; a LOOKUP
      // carries no tenant, so it sees the shared pool only.
      const auto hit = engine_->Lookup(request.query, trace, request.tenant);
      if (!hit) return MakeResponse(ResponseType::kMiss);
      Response r = MakeResponse(ResponseType::kHit);
      r.matched_key = hit->matched_key;
      r.value = hit->value;
      r.similarity = hit->similarity;
      r.judger_score = hit->judger_score;
      return r;
    }
    case RequestType::kInsert: {
      InsertRequest insert;
      insert.key = request.key;
      insert.value = request.value;
      insert.staticity = request.staticity;
      insert.initial_frequency = 1;  // a demanded fetch has one confirmed use
      const auto id = engine_->Insert(std::move(insert), trace);
      if (!id) return MakeResponse(ResponseType::kReject);
      Response r = MakeResponse(ResponseType::kOk);
      r.id = *id;
      return r;
    }
    case RequestType::kTenantInsert: {
      InsertRequest insert;
      insert.key = request.key;
      insert.value = request.value;
      insert.staticity = request.staticity;
      insert.initial_frequency = 1;
      insert.tenant = request.tenant;
      insert.shareable = request.shareable;
      const auto id = engine_->Insert(std::move(insert), trace);
      if (!id) return MakeResponse(ResponseType::kReject);
      Response r = MakeResponse(ResponseType::kOk);
      r.id = *id;
      return r;
    }
    case RequestType::kHello: {
      if (request.version != kProtocolVersion) {
        hello_rejects_->Inc();
        Response r = MakeResponse(ResponseType::kError);
        r.message = "protocol version mismatch: peer speaks v" +
                    std::to_string(request.version) + ", this node speaks v" +
                    std::to_string(kProtocolVersion);
        return r;
      }
      hellos_->Inc();
      Response r = MakeResponse(ResponseType::kWelcome);
      r.id = kProtocolVersion;
      r.message = "node";
      return r;
    }
    case RequestType::kSnapshot: {
      std::ostringstream out;
      SnapshotStats stats;
      try {
        stats = engine_->SaveSnapshot(out);
      } catch (const std::exception& e) {
        Response r = MakeResponse(ResponseType::kError);
        r.message = std::string("snapshot failed: ") + e.what();
        return r;
      }
      Response r = MakeResponse(ResponseType::kSnapshotData);
      r.id = stats.entries_written;
      r.message = std::move(out).str();
      snapshots_streamed_->Inc();
      snapshot_bytes_->Inc(r.message.size());
      return r;
    }
    case RequestType::kRestore: {
      std::istringstream in(request.blob);
      SnapshotStats stats;
      try {
        stats = engine_->LoadSnapshot(in);
      } catch (const std::exception& e) {
        Response r = MakeResponse(ResponseType::kError);
        r.message = std::string("restore failed: ") + e.what();
        return r;
      }
      restores_applied_->Inc();
      restore_entries_->Inc(stats.entries_restored);
      Response r = MakeResponse(ResponseType::kOk);
      r.id = stats.entries_restored;
      return r;
    }
    case RequestType::kMigrate:
    case RequestType::kCluster: {
      Response r = MakeResponse(ResponseType::kError);
      r.message = "router-only command";
      return r;
    }
  }
  Response r = MakeResponse(ResponseType::kError);
  r.message = "unhandled request type";
  return r;
}

Response CortexServer::BuildStats() {
  Response r = MakeResponse(ResponseType::kStats);
  const ConcurrentEngineStats engine = engine_->Stats();
  const ServerStats server = stats();
  const double hit_rate =
      engine.lookups ? static_cast<double>(engine.hits) /
                           static_cast<double>(engine.lookups)
                     : 0.0;
  r.stats = {
      {"shards", std::to_string(engine_->num_shards())},
      {"entries", std::to_string(engine_->TotalSize())},
      {"usage_tokens", FormatDouble(engine_->TotalUsageTokens())},
      {"lookups", std::to_string(engine.lookups)},
      {"hits", std::to_string(engine.hits)},
      {"hit_rate", FormatDouble(hit_rate)},
      {"inserts", std::to_string(engine.inserts)},
      {"insert_rejects", std::to_string(engine.insert_rejects)},
      {"expired_removed", std::to_string(engine.expired_removed)},
      {"housekeeping_runs", std::to_string(engine.housekeeping_runs)},
      {"recalibrations", std::to_string(engine.recalibrations)},
      {"connections_accepted", std::to_string(server.connections_accepted)},
      {"connections_rejected", std::to_string(server.connections_rejected)},
      {"requests_served", std::to_string(server.requests_served)},
      {"requests_busy", std::to_string(server.requests_busy)},
      {"protocol_errors", std::to_string(server.protocol_errors)},
  };
  // The full registry rides behind the legacy keys: every cortex_* metric
  // as flat key=value pairs (histograms expanded to _count/_mean/_p50/
  // _p99/_max), plus flight-recorder occupancy.
  registry_->Snapshot().AppendKeyValues(&r.stats);
  r.stats.emplace_back("flight_recorder_recorded",
                       std::to_string(recorder_.recorded()));
  r.stats.emplace_back("flight_recorder_dropped",
                       std::to_string(recorder_.dropped()));
  return r;
}

Response CortexServer::BuildTraces(std::uint64_t max_traces) {
  const auto traces =
      recorder_.Snapshot(static_cast<std::size_t>(max_traces));
  Response r = MakeResponse(ResponseType::kTraces);
  r.id = traces.size();
  r.message = telemetry::RenderTraceText(traces);
  return r;
}

ServerStats CortexServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_->Value();
  s.connections_rejected = connections_rejected_->Value();
  s.requests_served = requests_served_->Value();
  s.requests_busy = requests_busy_->Value();
  s.protocol_errors = protocol_errors_->Value();
  return s;
}

}  // namespace cortex::serve
