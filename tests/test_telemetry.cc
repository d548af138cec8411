// Telemetry subsystem tests (DESIGN.md §8): counter/gauge/histogram
// correctness under concurrency (run under TSan via scripts/tsan.sh),
// snapshot merge + quantile behaviour, registry contracts, flight-recorder
// wraparound and seqlock consistency, text exposition golden output, and
// an end-to-end pass showing a served LOOKUP populating engine + server
// metrics visible through the extended STATS / DUMPTRACE wire commands.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/client.h"
#include "serve/concurrent_engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "telemetry/trace.h"
#include "test_helpers.h"
#include "util/stats.h"

namespace cortex {
namespace {

using namespace cortex::serve;
using namespace cortex::telemetry;
using cortex::testing::MiniWorld;

class TelemetryDeathTest : public ::testing::Test {
 protected:
  TelemetryDeathTest() {
    // Re-exec the binary for death tests instead of bare fork(): the
    // suite spawns threads, and fork-from-multithreaded is unreliable.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// ---------------------------------------------------------------------------
// Counter

TEST(TelemetryCounterTest, SingleThreadIncrements) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("cortex_test_events");
  EXPECT_EQ(c->Value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(TelemetryCounterTest, EightThreadsSumExactly) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("cortex_test_events");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c->Inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
}

TEST(TelemetryCounterTest, DisabledRegistryDropsUpdates) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("cortex_test_events");
  Gauge* g = registry.GetGauge("cortex_test_depth");
  AtomicHistogram* h = registry.GetHistogram("cortex_test_seconds");
  c->Inc(3);
  registry.set_enabled(false);
  c->Inc(100);
  g->Set(7.0);
  g->Add(1.0);
  h->Observe(0.5);
  EXPECT_EQ(c->Value(), 3u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  registry.set_enabled(true);
  c->Inc();
  EXPECT_EQ(c->Value(), 4u);
}

// ---------------------------------------------------------------------------
// Gauge

TEST(TelemetryGaugeTest, SetAndAdd) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("cortex_test_depth");
  g->Set(5.0);
  g->Add(-2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Set(1.0);
  EXPECT_DOUBLE_EQ(g->Value(), 1.0);
}

TEST(TelemetryGaugeTest, ConcurrentAddsBalanceToZero) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("cortex_test_depth");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([g] {
      for (int i = 0; i < kIters; ++i) {
        g->Add(1.0);
        g->Add(-1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

// ---------------------------------------------------------------------------
// AtomicHistogram

TEST(TelemetryHistogramTest, MatchesUtilStatsHistogramGeometry) {
  // Same samples into the lock-free histogram and the offline util/stats
  // one (identical min_value/growth): counts identical, quantiles equal
  // to bucket resolution.
  MetricRegistry registry;
  AtomicHistogram* ah = registry.GetHistogram("cortex_test_seconds");
  Histogram reference(1e-6, 1.02);
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(1e-4 * i);  // 0.1ms..100ms
  for (const double s : samples) {
    ah->Observe(s);
    reference.Add(s);
  }
  const HistogramSnapshot snap = ah->Snapshot();
  EXPECT_EQ(snap.count, reference.count());
  EXPECT_DOUBLE_EQ(snap.min, reference.min());
  EXPECT_DOUBLE_EQ(snap.max, reference.max());
  EXPECT_NEAR(snap.mean(), reference.mean(), 1e-12);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(snap.Quantile(q), reference.Quantile(q)) << "q=" << q;
  }
}

TEST(TelemetryHistogramTest, EightThreadsObserveExactCount) {
  MetricRegistry registry;
  AtomicHistogram* h = registry.GetHistogram("cortex_test_seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe(1e-4 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1e-4);
  EXPECT_DOUBLE_EQ(snap.max, 8e-4);
}

TEST(TelemetryHistogramTest, ValuesAboveMaxClampIntoLastBucket) {
  MetricRegistry registry;
  AtomicHistogram* h = registry.GetHistogram("cortex_test_seconds");
  h->Observe(5000.0);  // above the 3600s default ceiling
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.max, 5000.0);
  // The quantile lands in the clamp bucket: at least the ceiling, at most
  // the recorded max.
  EXPECT_GE(snap.Quantile(1.0), 3600.0);
  EXPECT_LE(snap.Quantile(1.0), 5000.0);
}

TEST(TelemetryHistogramTest, SnapshotMergeAccumulates) {
  MetricRegistry registry;
  AtomicHistogram* a = registry.GetHistogram("cortex_test_a_seconds");
  AtomicHistogram* b = registry.GetHistogram("cortex_test_b_seconds");
  for (int i = 0; i < 100; ++i) a->Observe(0.001);
  for (int i = 0; i < 300; ++i) b->Observe(0.1);
  HistogramSnapshot merged = a->Snapshot();
  merged.Merge(b->Snapshot());
  EXPECT_EQ(merged.count, 400u);
  EXPECT_DOUBLE_EQ(merged.min, 0.001);
  EXPECT_DOUBLE_EQ(merged.max, 0.1);
  EXPECT_NEAR(merged.sum, 100 * 0.001 + 300 * 0.1, 1e-9);
  // 75% of the mass is at 0.1: the median moved to the upper mode.
  EXPECT_NEAR(merged.Quantile(0.5), 0.1, 0.1 * 0.03);
}

TEST_F(TelemetryDeathTest, SnapshotMergeRejectsMismatchedGeometry) {
  MetricRegistry registry;
  AtomicHistogram* a = registry.GetHistogram("cortex_test_a_seconds");
  HistogramOptions coarse;
  coarse.growth = 2.0;
  AtomicHistogram* b =
      registry.GetHistogram("cortex_test_b_seconds", coarse);
  a->Observe(0.5);
  b->Observe(0.5);
  HistogramSnapshot snap = a->Snapshot();
  EXPECT_DEATH(snap.Merge(b->Snapshot()),
               "different bucket layouts");
}

// ---------------------------------------------------------------------------
// MetricRegistry

TEST(TelemetryRegistryTest, GetIsIdempotent) {
  MetricRegistry registry;
  EXPECT_EQ(registry.GetCounter("cortex_test_events"),
            registry.GetCounter("cortex_test_events"));
  EXPECT_EQ(registry.GetGauge("cortex_test_depth"),
            registry.GetGauge("cortex_test_depth"));
  EXPECT_EQ(registry.GetHistogram("cortex_test_seconds"),
            registry.GetHistogram("cortex_test_seconds"));
}

TEST_F(TelemetryDeathTest, RegistryRejectsKindMismatch) {
  MetricRegistry registry;
  registry.GetCounter("cortex_test_events");
  EXPECT_DEATH(registry.GetGauge("cortex_test_events"),
               "already registered as a different kind");
}

TEST_F(TelemetryDeathTest, RegistryRejectsBadNames) {
  MetricRegistry registry;
  EXPECT_DEATH(registry.GetCounter("has space"), "bad metric name");
  EXPECT_DEATH(registry.GetCounter("has=equals"), "bad metric name");
  EXPECT_DEATH(registry.GetCounter(""), "bad metric name");
}

// ---------------------------------------------------------------------------
// Exposition

TEST(TelemetryExpositionTest, RenderTextGolden) {
  MetricRegistry registry;
  registry.GetCounter("a_counter")->Inc(3);
  registry.GetGauge("b_gauge")->Set(2.5);
  AtomicHistogram* h = registry.GetHistogram("c_seconds");
  // Two samples in bucket 0 (<= min_value): every quantile is the
  // recorded max, so the whole rendering is deterministic.
  h->Observe(1e-7);
  h->Observe(1e-7);
  EXPECT_EQ(registry.Snapshot().RenderText(),
            "# TYPE a_counter counter\n"
            "a_counter 3\n"
            "# TYPE b_gauge gauge\n"
            "b_gauge 2.5\n"
            "# TYPE c_seconds histogram\n"
            "c_seconds_count 2\n"
            "c_seconds_sum 2e-07\n"
            "c_seconds{quantile=\"0.5\"} 1e-07\n"
            "c_seconds{quantile=\"0.9\"} 1e-07\n"
            "c_seconds{quantile=\"0.99\"} 1e-07\n"
            "c_seconds_min 1e-07\n"
            "c_seconds_max 1e-07\n");
}

TEST(TelemetryExpositionTest, AppendKeyValuesExpandsHistograms) {
  MetricRegistry registry;
  registry.GetCounter("a_counter")->Inc(3);
  registry.GetGauge("b_gauge")->Set(2.5);
  registry.GetHistogram("c_seconds")->Observe(0.25);
  std::vector<std::pair<std::string, std::string>> kv;
  registry.Snapshot().AppendKeyValues(&kv);
  std::vector<std::string> keys;
  for (const auto& [k, v] : kv) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "a_counter", "b_gauge", "c_seconds_count",
                      "c_seconds_mean", "c_seconds_p50", "c_seconds_p99",
                      "c_seconds_max"}));
  EXPECT_EQ(kv[0].second, "3");
  EXPECT_EQ(kv[2].second, "1");
}

// ---------------------------------------------------------------------------
// RequestTrace

TEST(RequestTraceTest, SpanOverflowKeepsTrueCount) {
  RequestTrace trace;
  for (int i = 0; i < 12; ++i) {
    trace.AddSpan(TracePhase::kEmbed, 0.1 * i, 0.01);
  }
  EXPECT_EQ(trace.span_count, 12u);  // attempted count survives
  // Only the first kMaxTraceSpans are stored.
  EXPECT_DOUBLE_EQ(trace.spans[kMaxTraceSpans - 1].start,
                   0.1 * (kMaxTraceSpans - 1));
}

TEST(RequestTraceTest, QueryTruncatesToFixedBytes) {
  RequestTrace trace;
  const std::string long_query(100, 'q');
  trace.SetQuery(long_query);
  EXPECT_EQ(trace.query_len, kTraceQueryBytes);
  EXPECT_EQ(trace.query_view(), long_query.substr(0, kTraceQueryBytes));
  trace.SetQuery("short");
  EXPECT_EQ(trace.query_view(), "short");
}

TEST(RequestTraceTest, RenderTraceTextFormat) {
  RequestTrace trace;
  trace.seq = 7;
  trace.op = TraceOp::kLookup;
  trace.outcome = TraceOutcome::kHit;
  trace.shard = 2;
  trace.start = 1.5;
  trace.total = 0.002;
  trace.AddSpan(TracePhase::kEmbed, 1.5, 0.001);
  trace.AddSpan(TracePhase::kAnnProbe, 1.501, 0.0005);
  trace.SetQuery("everest height");
  const std::string text = RenderTraceText({trace});
  EXPECT_EQ(text,
            "#7 LOOKUP hit shard=2 t=1.500s total=2.000ms "
            "spans[embed=1.000ms ann_probe=0.500ms] q=\"everest height\"\n");
}

// ---------------------------------------------------------------------------
// FlightRecorder

RequestTrace MakeTrace(TraceOp op, std::uint32_t shard, double total) {
  RequestTrace trace;
  trace.op = op;
  trace.outcome = TraceOutcome::kOk;
  trace.shard = shard;
  trace.total = total;
  trace.AddSpan(TracePhase::kCommit, 0.0, total);
  trace.SetQuery(std::string("q").append(std::to_string(shard)));
  return trace;
}

TEST(FlightRecorderTest, SnapshotIsNewestFirst) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  recorder.Record(MakeTrace(TraceOp::kLookup, 0, 0.1));
  recorder.Record(MakeTrace(TraceOp::kInsert, 1, 0.2));
  recorder.Record(MakeTrace(TraceOp::kPing, 2, 0.3));
  const auto traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].seq, 2u);
  EXPECT_EQ(traces[0].op, TraceOp::kPing);
  EXPECT_EQ(traces[1].seq, 1u);
  EXPECT_EQ(traces[2].seq, 0u);
  EXPECT_EQ(traces[2].query_view(), "q0");
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
  // max_entries truncates after the newest-first sort.
  EXPECT_EQ(recorder.Snapshot(1).size(), 1u);
  EXPECT_EQ(recorder.Snapshot(1)[0].seq, 2u);
}

TEST(FlightRecorderTest, WraparoundKeepsNewestTraces) {
  FlightRecorder recorder(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    recorder.Record(MakeTrace(TraceOp::kLookup, i, 0.001 * i));
  }
  const auto traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 4u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].seq, 9u - i);
    EXPECT_EQ(traces[i].shard, 9u - i);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderTest, ZeroCapacityIsClampedToOne) {
  FlightRecorder recorder(0);
  EXPECT_EQ(recorder.capacity(), 1u);
  recorder.Record(MakeTrace(TraceOp::kPing, 0, 0.1));
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, ConcurrentRecordsStayInternallyConsistent) {
  // Writers publish traces whose fields are correlated (total == shard);
  // concurrent snapshots must never observe a torn mix.  Run under TSan.
  FlightRecorder recorder(64);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const RequestTrace& t : recorder.Snapshot()) {
        if (t.total != static_cast<double>(t.shard) ||
            t.query_view() !=
                std::string("q").append(std::to_string(t.shard))) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.Record(MakeTrace(TraceOp::kLookup,
                                  static_cast<std::uint32_t>(w),
                                  static_cast<double>(w)));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(recorder.recorded() + recorder.dropped(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const auto traces = recorder.Snapshot();
  EXPECT_GT(traces.size(), 0u);
  EXPECT_LE(traces.size(), recorder.capacity());
}

// ---------------------------------------------------------------------------
// Engine instrumentation

class EngineTelemetryTest : public ::testing::Test {
 protected:
  EngineTelemetryTest() : world_(48, /*seed=*/47) {}

  std::unique_ptr<ConcurrentShardedEngine> MakeEngine() {
    ConcurrentEngineOptions opts;
    opts.num_shards = 4;
    opts.cache.capacity_tokens = 1e6;
    opts.housekeeping_interval_sec = 0.0;
    return std::make_unique<ConcurrentShardedEngine>(
        &world_.embedder, world_.judger.get(), opts);
  }

  MiniWorld world_;
};

TEST_F(EngineTelemetryTest, LookupAndInsertPopulateRegistry) {
  auto engine = MakeEngine();
  MetricRegistry* registry = engine->registry();
  ASSERT_NE(registry, nullptr);

  RequestTrace miss_trace;
  EXPECT_FALSE(engine->Lookup(world_.query(0, 0), &miss_trace).has_value());
  InsertRequest insert;
  insert.key = world_.query(0, 0);
  insert.value = world_.answer(0);
  insert.staticity = world_.topic(0).staticity;
  RequestTrace insert_trace;
  ASSERT_TRUE(engine->Insert(std::move(insert), &insert_trace).has_value());
  RequestTrace hit_trace;
  ASSERT_TRUE(engine->Lookup(world_.query(0, 2), &hit_trace).has_value());

  EXPECT_EQ(registry->GetCounter("cortex_engine_lookups")->Value(), 2u);
  EXPECT_EQ(registry->GetCounter("cortex_engine_hits")->Value(), 1u);
  EXPECT_EQ(registry->GetCounter("cortex_engine_misses")->Value(), 1u);
  EXPECT_EQ(registry->GetCounter("cortex_engine_inserts")->Value(), 1u);
  EXPECT_EQ(
      registry->GetHistogram("cortex_engine_probe_seconds")->Snapshot().count,
      2u);
  EXPECT_EQ(
      registry->GetHistogram("cortex_engine_insert_seconds")->Snapshot().count,
      1u);
  EXPECT_GT(registry->GetGauge("cortex_cache_entries")->Value(), 0.0);
  EXPECT_GT(registry->GetGauge("cortex_cache_tokens_resident")->Value(), 0.0);

  // The legacy Stats() view reads the same instruments.
  const ConcurrentEngineStats stats = engine->Stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);

  // Per-shard flat keys: exactly one shard saw the hit.
  std::uint64_t shard_hits = 0;
  for (std::size_t i = 0; i < engine->num_shards(); ++i) {
    shard_hits += registry
                      ->GetCounter("cortex_engine_shard" + std::to_string(i) +
                                   "_hits")
                      ->Value();
  }
  EXPECT_EQ(shard_hits, 1u);

  // Traces carry the probe spans and the owning shard.
  EXPECT_GT(hit_trace.span_count, 0u);
  bool saw_embed = false, saw_probe = false;
  for (std::uint32_t i = 0; i < hit_trace.span_count; ++i) {
    saw_embed |= hit_trace.spans[i].phase == TracePhase::kEmbed;
    saw_probe |= hit_trace.spans[i].phase == TracePhase::kAnnProbe;
  }
  EXPECT_TRUE(saw_embed);
  EXPECT_TRUE(saw_probe);
  EXPECT_EQ(hit_trace.shard,
            static_cast<std::uint32_t>(engine->ShardFor(world_.query(0, 2))));
  EXPECT_GT(insert_trace.span_count, 0u);
  EXPECT_EQ(insert_trace.spans[0].phase, TracePhase::kInsert);
}

TEST_F(EngineTelemetryTest, InjectedRegistryIsShared) {
  MetricRegistry registry;
  ConcurrentEngineOptions opts;
  opts.num_shards = 2;
  opts.cache.capacity_tokens = 1e6;
  opts.housekeeping_interval_sec = 0.0;
  opts.registry = &registry;
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);
  EXPECT_EQ(engine.registry(), &registry);
  engine.Lookup(world_.query(3, 0));
  EXPECT_EQ(registry.GetCounter("cortex_engine_lookups")->Value(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end over a live server

class ServerTelemetryTest : public ::testing::Test {
 protected:
  ServerTelemetryTest() : world_(48, /*seed=*/47) {}

  std::string SocketPath(const char* tag) {
    return ::testing::TempDir() + "cortex-telemetry-" + tag + "-" +
           std::to_string(::getpid()) + ".sock";
  }

  std::unique_ptr<ConcurrentShardedEngine> MakeEngine() {
    ConcurrentEngineOptions opts;
    opts.num_shards = 4;
    opts.cache.capacity_tokens = 1e6;
    opts.housekeeping_interval_sec = 0.0;
    return std::make_unique<ConcurrentShardedEngine>(
        &world_.embedder, world_.judger.get(), opts);
  }

  MiniWorld world_;
};

TEST_F(ServerTelemetryTest, ServedLookupShowsUpInExtendedStats) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("stats");
  opts.num_workers = 2;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(server.registry(), engine->registry());

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;

  Request lookup;
  lookup.type = RequestType::kLookup;
  lookup.query = world_.query(0, 0);
  auto response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->type, ResponseType::kMiss);

  Request insert;
  insert.type = RequestType::kInsert;
  insert.key = world_.query(0, 0);
  insert.value = world_.answer(0);
  insert.staticity = world_.topic(0).staticity;
  response = client.Call(insert, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kOk);

  lookup.query = world_.query(0, 2);
  response = client.Call(lookup, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kHit);

  Request stats;
  stats.type = RequestType::kStats;
  response = client.Call(stats, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kStats);

  std::map<std::string, std::string> kv(response->stats.begin(),
                                        response->stats.end());
  // Legacy flat keys survive unchanged...
  EXPECT_EQ(kv.at("lookups"), "2");
  EXPECT_EQ(kv.at("hits"), "1");
  // ...and the registry's namespaced keys ride along in the same frame.
  EXPECT_EQ(kv.at("cortex_engine_lookups"), "2");
  EXPECT_EQ(kv.at("cortex_engine_hits"), "1");
  EXPECT_EQ(kv.at("cortex_engine_misses"), "1");
  EXPECT_EQ(kv.at("cortex_engine_inserts"), "1");
  EXPECT_EQ(kv.at("cortex_engine_probe_seconds_count"), "2");
  EXPECT_TRUE(kv.count("cortex_engine_probe_seconds_p50"));
  EXPECT_TRUE(kv.count("cortex_engine_probe_seconds_p99"));
  EXPECT_TRUE(kv.count("cortex_server_request_seconds_p99"));
  EXPECT_TRUE(kv.count("cortex_server_queue_depth"));
  EXPECT_TRUE(kv.count("cortex_cache_evictions"));
  // 3 requests executed so far (the STATS frame itself races the count).
  EXPECT_GE(std::stoull(kv.at("cortex_server_requests_served")), 3ull);
  EXPECT_GE(std::stoull(kv.at("cortex_server_request_seconds_count")), 3ull);
  EXPECT_GE(std::stoull(kv.at("flight_recorder_recorded")), 3ull);

  // The ServerStats view and the registry agree.
  const ServerStats view = server.stats();
  EXPECT_EQ(view.requests_served,
            server.registry()
                ->GetCounter("cortex_server_requests_served")
                ->Value());
  EXPECT_EQ(view.connections_accepted, 1u);

  server.Stop();
}

TEST_F(ServerTelemetryTest, DumpTraceReturnsRecentRequests) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.unix_path = SocketPath("dump");
  opts.num_workers = 1;
  opts.flight_recorder_capacity = 8;
  CortexServer server(engine.get(), opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlockingClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;

  Request lookup;
  lookup.type = RequestType::kLookup;
  for (int i = 0; i < 3; ++i) {
    lookup.query = world_.query(static_cast<std::size_t>(i), 0);
    ASSERT_TRUE(client.Call(lookup, &error).has_value()) << error;
  }

  Request dump;
  dump.type = RequestType::kDumpTrace;
  dump.max_traces = 16;
  const auto response = client.Call(dump, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->type, ResponseType::kTraces);
  EXPECT_GE(response->id, 3u);  // id carries the trace count
  EXPECT_NE(response->message.find("LOOKUP miss"), std::string::npos);
  EXPECT_NE(response->message.find("queue_wait="), std::string::npos);
  EXPECT_NE(response->message.find("ann_probe="), std::string::npos);

  // A bounded dump returns exactly that many traces, newest first.
  dump.max_traces = 2;
  const auto bounded = client.Call(dump, &error);
  ASSERT_TRUE(bounded.has_value()) << error;
  ASSERT_EQ(bounded->type, ResponseType::kTraces);
  EXPECT_EQ(bounded->id, 2u);

  server.Stop();
}

}  // namespace
}  // namespace cortex
