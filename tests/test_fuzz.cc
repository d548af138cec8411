// Randomized robustness tests: feed the text-facing components and the
// snapshot decoder adversarial and random input and check they never
// crash, never violate their invariants, and stay deterministic.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ann/flat_index.h"
#include "core/exact_cache.h"
#include "core/semantic_cache.h"
#include "core/snapshot.h"
#include "embedding/hashed_embedder.h"
#include "llm/tags.h"
#include "serve/concurrent_engine.h"
#include "test_helpers.h"
#include "util/config.h"
#include "util/rng.h"
#include "util/tokenizer.h"

namespace cortex {
namespace {

std::string RandomText(Rng& rng, std::size_t max_len) {
  // Mix of printable ASCII, angle brackets, and the tag alphabet so the tag
  // parser's state machine actually gets exercised.
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz <>/ниș\t\n'_0123456789<think></think>"
      "<search><info><answer><tool>";
  const std::size_t len = rng.NextBelow(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.NextBelow(kAlphabet.size())]);
  }
  return out;
}

TEST(Fuzz, TagParserNeverCrashesAndPreservesTaggedContent) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = RandomText(rng, 200);
    const auto segments = ParseTagged(text);
    // Invariants: no segment has an impossible kind; tagged round trip of a
    // sanitized payload survives embedding in random noise.
    for (const auto& seg : segments) {
      EXPECT_LE(static_cast<int>(seg.kind), static_cast<int>(TagKind::kText));
    }
  }
}

TEST(Fuzz, WrappedPayloadAlwaysRecoverable) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 500; ++trial) {
    // Payload without the closing-tag substring.
    std::string payload = RandomText(rng, 60);
    for (std::string_view closing :
         {"</think>", "</search>", "</info>", "</answer>", "</tool>"}) {
      std::size_t pos;
      while ((pos = payload.find(closing)) != std::string::npos) {
        payload.erase(pos, 2);  // break the "</" prefix
      }
    }
    const std::string text = WrapTag(TagKind::kSearch, payload);
    const auto segments = ParseTagged(text);
    bool found = false;
    for (const auto& seg : segments) {
      if (seg.kind == TagKind::kSearch) {
        found = true;
        EXPECT_EQ(seg.content, payload);
      }
    }
    EXPECT_TRUE(found) << text;
  }
}

TEST(Fuzz, TokenizerNeverCrashesOnArbitraryBytes) {
  Rng rng(0xF024);
  Tokenizer tokenizer;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    const std::size_t len = rng.NextBelow(120);
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    const auto tokens = tokenizer.Tokenize(bytes);
    for (const auto& t : tokens) EXPECT_FALSE(t.empty());
    const double overlap = tokenizer.LexicalOverlap(bytes, bytes);
    EXPECT_GE(overlap, 0.0);
    EXPECT_LE(overlap, 1.0);
  }
}

TEST(Fuzz, EmbedderIsTotalAndUnitNorm) {
  Rng rng(0xF025);
  HashedEmbedder embedder;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string bytes;
    const std::size_t len = rng.NextBelow(100);
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(1 + rng.NextBelow(255)));
    }
    const auto v = embedder.Embed(bytes);
    EXPECT_EQ(v.size(), embedder.dimension());
    EXPECT_NEAR(L2Norm(v), 1.0, 1e-4);
  }
}

TEST(Fuzz, ConfigParserRejectsOrAcceptsNeverCrashes) {
  Rng rng(0xF026);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string text = RandomText(rng, 150);
    try {
      const auto config = Config::FromString(text);
      (void)config.Keys();
    } catch (const std::invalid_argument&) {
      // Rejection is fine; crashing is not.
    }
  }
}

TEST(Fuzz, SemanticCacheInvariantsUnderRandomOperations) {
  cortex::testing::MiniWorld world(30, 0xF027);
  SemanticCacheOptions opts;
  opts.capacity_tokens = 800.0;
  opts.min_ttl_sec = 20.0;
  opts.max_ttl_sec = 200.0;
  SemanticCache cache(&world.embedder,
                      std::make_unique<FlatIndex>(world.embedder.dimension()),
                      world.judger.get(), std::make_unique<LcfuPolicy>(),
                      opts);
  Rng rng(0xF028);
  double now = 0.0;
  std::vector<SeId> live_ids;
  for (int op = 0; op < 2000; ++op) {
    now += rng.Uniform(0.0, 2.0);
    const auto topic = rng.NextBelow(world.universe->size());
    const auto para = rng.NextBelow(6);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {  // lookup (insert on miss)
        auto result = cache.Lookup(world.query(topic, para), now);
        if (!result.hit) {
          InsertRequest req;
          req.key = world.query(topic, para);
          req.value = world.answer(topic);
          req.embedding = std::move(result.query_embedding);
          req.staticity = world.topic(topic).staticity;
          req.retrieval_latency_sec = rng.Uniform(0.1, 1.0);
          req.retrieval_cost_dollars = rng.Uniform(0.0, 0.03);
          if (auto id = cache.Insert(std::move(req), now)) {
            live_ids.push_back(*id);
          }
        }
        break;
      }
      case 2: {  // random removal
        if (!live_ids.empty()) {
          const auto idx = rng.NextBelow(live_ids.size());
          cache.Remove(live_ids[idx]);
          live_ids.erase(live_ids.begin() +
                         static_cast<std::ptrdiff_t>(idx));
        }
        break;
      }
      case 3:  // TTL purge
        cache.RemoveExpired(now);
        break;
    }
    // Invariants after every operation.
    ASSERT_LE(cache.usage_tokens(), opts.capacity_tokens + 1e-9);
    ASSERT_EQ(cache.sine().size(), cache.size());
    double sum = 0.0;
    for (const auto& [id, se] : cache.entries()) {
      sum += se.size_tokens;
      ASSERT_FALSE(se.ExpiredAt(now - 1e9));  // sanity: not absurdly expired
    }
    ASSERT_NEAR(sum, cache.usage_tokens(), 1e-6);
  }
  EXPECT_GT(cache.counters().hits, 0u);
  EXPECT_GT(cache.counters().evictions + cache.counters().expirations, 0u);
}

TEST(Fuzz, ExactCacheNeverExceedsCapacityUnderRandomOps) {
  ExactCacheOptions opts;
  opts.capacity_tokens = 60.0;
  opts.ttl_sec = 50.0;
  ExactCache cache(opts);
  Rng rng(0xF029);
  double now = 0.0;
  for (int op = 0; op < 3000; ++op) {
    now += rng.Uniform(0.0, 1.0);
    const std::string key = "key " + std::to_string(rng.NextBelow(40));
    if (rng.Bernoulli(0.5)) {
      cache.Insert(key, "value payload " + std::to_string(rng.NextBelow(8)),
                   now);
    } else {
      cache.Lookup(key, now);
    }
    ASSERT_LE(cache.usage_tokens(), opts.capacity_tokens);
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST(Fuzz, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    cortex::testing::MiniWorld world(25, 0xF030);
    SemanticCacheOptions opts;
    opts.capacity_tokens = 600.0;
    SemanticCache cache(
        &world.embedder,
        std::make_unique<FlatIndex>(world.embedder.dimension()),
        world.judger.get(), std::make_unique<LcfuPolicy>(), opts);
    Rng rng(0xF031);
    std::uint64_t hits = 0;
    for (int op = 0; op < 500; ++op) {
      const auto topic = rng.NextBelow(world.universe->size());
      auto result = cache.Lookup(world.query(topic, rng.NextBelow(6)),
                                 op * 0.7);
      if (result.hit) {
        ++hits;
      } else {
        InsertRequest req;
        req.key = world.query(topic, 0);
        req.value = world.answer(topic);
        req.staticity = 5.0;
        cache.Insert(std::move(req), op * 0.7);
      }
    }
    return hits;
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Snapshot decoder: RESTORE applies a blob received over the wire, so every
// corrupt blob must throw before the engine changes.

std::string SnapshotBlob(double writer_now,
                         const std::vector<std::string>& sections,
                         std::uint64_t declared_sections) {
  std::ostringstream out;
  WriteSnapshotHeader(out, writer_now, declared_sections);
  for (const std::string& section : sections) out << section;
  return std::move(out).str();
}

// Offsets of every u64 count and length field of a well-formed blob, found
// by walking the layout documented in core/snapshot.h.
std::vector<std::size_t> LengthFieldOffsets(const std::string& blob) {
  const auto u64_at = [&](std::size_t p) {
    std::uint64_t v = 0;
    std::memcpy(&v, blob.data() + p, sizeof v);
    return v;
  };
  std::vector<std::size_t> offsets;
  std::size_t p = 16;  // magic, version, writer_now
  const std::uint64_t sections = u64_at(p);
  offsets.push_back(p);
  p += 8;
  for (std::uint64_t s = 0; s < sections; ++s) {
    const std::uint64_t count = u64_at(p);
    offsets.push_back(p);
    p += 8;
    for (std::uint64_t i = 0; i < count; ++i) {
      // key, value, embedding (then seven 8-byte fields), tenant.
      for (int field = 0; field < 4; ++field) {
        const std::uint64_t n = u64_at(p);
        offsets.push_back(p);
        p += 8 + (field == 2 ? n * sizeof(float) + 7 * 8 : n);
      }
      p += 4;  // shareable
    }
    p += 4;  // section CRC
  }
  return offsets;
}

// One random edit of `blob`: bit flips, a truncation, an inflated length
// field, a splice of whole (or cut) sections under a right or wrong
// declared count, or a duplicated byte range.
std::string MutateSnapshot(Rng& rng, const std::string& blob,
                           const std::vector<std::string>& sections,
                           double writer_now) {
  std::string out = blob;
  switch (rng.NextBelow(5)) {
    case 0: {
      for (std::uint64_t flips = 1 + rng.NextBelow(4); flips > 0; --flips) {
        out[rng.NextBelow(out.size())] ^=
            static_cast<char>(1u << rng.NextBelow(8));
      }
      break;
    }
    case 1:
      out.resize(rng.NextBelow(out.size()));
      break;
    case 2: {
      const auto offsets = LengthFieldOffsets(blob);
      const std::size_t p = offsets[rng.NextBelow(offsets.size())];
      static constexpr std::uint64_t kHuge[] = {
          ~std::uint64_t{0}, ~std::uint64_t{0} / sizeof(float) + 1,
          std::uint64_t{1} << 30, std::uint64_t{1} << 24};
      std::uint64_t v = 0;
      std::memcpy(&v, out.data() + p, sizeof v);
      v = rng.Bernoulli(0.5) ? kHuge[rng.NextBelow(std::size(kHuge))]
                             : v + 1 + rng.NextBelow(64);
      std::memcpy(out.data() + p, &v, sizeof v);
      break;
    }
    case 3: {
      std::vector<std::string> picked;
      for (std::uint64_t n = rng.NextBelow(sections.size() + 2); n > 0; --n) {
        picked.push_back(sections[rng.NextBelow(sections.size())]);
      }
      std::uint64_t declared = picked.size();
      if (rng.Bernoulli(0.3)) declared = declared + rng.NextBelow(3) - 1;
      out = SnapshotBlob(writer_now, picked, declared);
      if (rng.Bernoulli(0.3)) {
        out.resize(24 + rng.NextBelow(out.size() - 23));
        out += sections[rng.NextBelow(sections.size())];
      }
      break;
    }
    default: {
      const std::size_t from = rng.NextBelow(out.size());
      const std::size_t length = 1 + rng.NextBelow(64);
      out.insert(rng.NextBelow(out.size() + 1), blob.substr(from, length));
      break;
    }
  }
  return out;
}

TEST(Fuzz, SnapshotDecoderLoadsOrThrowsWithEngineUnchanged) {
  cortex::testing::MiniWorld world(40, 0xF032);
  serve::ConcurrentEngineOptions opts;
  opts.num_shards = 2;
  opts.cache.capacity_tokens = 1e6;
  opts.housekeeping_interval_sec = 0.0;
  opts.clock = [] { return 100.0; };
  serve::ConcurrentShardedEngine source(&world.embedder, world.judger.get(),
                                        opts);
  for (std::size_t topic = 0; topic < 12; ++topic) {
    InsertRequest req;
    req.key = world.query(topic, 0);
    req.value = world.answer(topic);
    req.staticity = world.topic(topic).staticity;
    if (topic % 3 == 0) req.tenant = "acme";
    req.shareable = topic % 2 == 0;
    ASSERT_TRUE(source.Insert(std::move(req)).has_value());
  }
  std::stringstream saved;
  source.SaveSnapshot(saved);
  const DecodedSnapshot decoded = DecodeSnapshot(saved);

  // Three sections of four entries plus an empty one: a well-formed blob
  // with known section boundaries for the splicer.
  std::vector<std::string> sections;
  for (std::size_t first = 0; first <= decoded.elements.size(); first += 4) {
    const std::vector<SemanticElement> part(
        decoded.elements.begin() + static_cast<std::ptrdiff_t>(first),
        decoded.elements.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(first + 4, decoded.elements.size())));
    std::ostringstream out;
    WriteSnapshotSection(out, decoded.writer_now, part);
    sections.push_back(std::move(out).str());
  }
  const std::string blob =
      SnapshotBlob(decoded.writer_now, sections, sections.size());

  opts.clock = [] { return 500.0; };
  serve::ConcurrentShardedEngine target(&world.embedder, world.judger.get(),
                                        opts);
  Rng rng(0xF033);
  std::size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const std::string mutated =
        MutateSnapshot(rng, blob, sections, decoded.writer_now);
    const std::size_t size_before = target.TotalSize();
    const CacheCounters counters_before = target.TotalCounters();
    std::stringstream in(mutated);
    try {
      target.LoadSnapshot(in);
      ++loaded;
    } catch (const std::runtime_error&) {
      ++rejected;
      ASSERT_EQ(target.TotalSize(), size_before) << "trial " << trial;
      ASSERT_TRUE(target.TotalCounters() == counters_before)
          << "trial " << trial;
    }
  }
  // Both outcomes were exercised: splices of whole sections load, and
  // most byte-level damage is caught.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, loaded);
}

}  // namespace
}  // namespace cortex
