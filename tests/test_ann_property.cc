// Property tests that every VectorIndex implementation must satisfy,
// parameterised over index type — the cache treats them interchangeably.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/ivf_index.h"
#include "embedding/simd_kernels.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace cortex {
namespace {

enum class Kind { kFlat, kIvf, kHnsw };

std::unique_ptr<VectorIndex> Make(Kind kind, std::size_t dim) {
  switch (kind) {
    case Kind::kFlat:
      return std::make_unique<FlatIndex>(dim);
    case Kind::kIvf: {
      IvfOptions opts;
      opts.num_lists = 8;
      opts.num_probes = 8;  // full probing for deterministic recall
      return std::make_unique<IvfIndex>(dim, opts);
    }
    case Kind::kHnsw:
      return std::make_unique<HnswIndex>(dim);
  }
  return nullptr;
}

std::string KindName(Kind k) {
  switch (k) {
    case Kind::kFlat: return "flat";
    case Kind::kIvf: return "ivf";
    case Kind::kHnsw: return "hnsw";
  }
  return "?";
}

Vector RandomUnit(std::size_t dim, Rng& rng) {
  Vector v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  Normalize(v);
  return v;
}

class IndexPropertyTest : public ::testing::TestWithParam<Kind> {};

TEST_P(IndexPropertyTest, InsertThenContainsAndGet) {
  auto idx = Make(GetParam(), 8);
  Rng rng(1);
  const auto v = RandomUnit(8, rng);
  idx->Add(5, v);
  EXPECT_TRUE(idx->Contains(5));
  ASSERT_TRUE(idx->Get(5).has_value());
  EXPECT_EQ(*idx->Get(5), v);
  EXPECT_EQ(idx->size(), 1u);
  EXPECT_EQ(idx->dimension(), 8u);
}

TEST_P(IndexPropertyTest, RemoveMakesIdInvisible) {
  auto idx = Make(GetParam(), 8);
  Rng rng(2);
  for (VectorId i = 0; i < 40; ++i) idx->Add(i, RandomUnit(8, rng));
  EXPECT_TRUE(idx->Remove(11));
  EXPECT_FALSE(idx->Contains(11));
  EXPECT_FALSE(idx->Get(11).has_value());
  EXPECT_EQ(idx->size(), 39u);
  const auto results = idx->Search(RandomUnit(8, rng), 39, -1.0);
  for (const auto& r : results) EXPECT_NE(r.id, 11u);
}

TEST_P(IndexPropertyTest, RemoveMissingIdReturnsFalse) {
  auto idx = Make(GetParam(), 4);
  EXPECT_FALSE(idx->Remove(123));
}

TEST_P(IndexPropertyTest, ResultsSortedByDescendingSimilarity) {
  auto idx = Make(GetParam(), 12);
  Rng rng(3);
  for (VectorId i = 0; i < 100; ++i) idx->Add(i, RandomUnit(12, rng));
  const auto results = idx->Search(RandomUnit(12, rng), 10, -1.0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].similarity, results[i].similarity);
  }
}

TEST_P(IndexPropertyTest, ResultsRespectMinSimilarity) {
  auto idx = Make(GetParam(), 12);
  Rng rng(4);
  for (VectorId i = 0; i < 100; ++i) idx->Add(i, RandomUnit(12, rng));
  const auto results = idx->Search(RandomUnit(12, rng), 100, 0.3);
  for (const auto& r : results) EXPECT_GE(r.similarity, 0.3);
}

TEST_P(IndexPropertyTest, ResultsNeverExceedK) {
  auto idx = Make(GetParam(), 8);
  Rng rng(5);
  for (VectorId i = 0; i < 64; ++i) idx->Add(i, RandomUnit(8, rng));
  EXPECT_LE(idx->Search(RandomUnit(8, rng), 7, -1.0).size(), 7u);
}

TEST_P(IndexPropertyTest, SelfQueryRecall) {
  auto idx = Make(GetParam(), 16);
  Rng rng(6);
  std::vector<Vector> vecs;
  for (VectorId i = 0; i < 128; ++i) {
    vecs.push_back(RandomUnit(16, rng));
    idx->Add(i, vecs.back());
  }
  int correct = 0;
  for (VectorId i = 0; i < 128; ++i) {
    const auto r = idx->Search(vecs[i], 1, -1.0);
    if (!r.empty() && r[0].id == i) ++correct;
  }
  EXPECT_GE(correct, 120);  // >= 94% even for approximate indexes
}

TEST_P(IndexPropertyTest, ChurnKeepsIndexConsistent) {
  auto idx = Make(GetParam(), 8);
  Rng rng(7);
  // Interleave adds and removes; size bookkeeping must stay exact.
  std::size_t expected = 0;
  for (VectorId i = 0; i < 200; ++i) {
    idx->Add(i, RandomUnit(8, rng));
    ++expected;
    if (i % 3 == 0) {
      if (idx->Remove(i / 2)) --expected;
    }
    ASSERT_EQ(idx->size(), expected) << "at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexPropertyTest,
                         ::testing::Values(Kind::kFlat, Kind::kIvf,
                                           Kind::kHnsw),
                         [](const auto& info) { return KindName(info.param); });

// ---------------------------------------------------------------------------
// Dispatch independence: every index must return the same top-k ids and
// the same similarities no matter which SIMD variant is active (scalar vs
// native), on a fixed seed, and every reported similarity must be the exact
// scalar double dot: the shared exact rerank guarantees both.  Build AND
// search run under the forced variant, mirroring a process pinned via
// CORTEX_SIMD.

using cortex::testing::ScopedVariant;

constexpr std::size_t kDim = 32;
constexpr std::size_t kN = 200;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kQueries = 5;

TEST(DispatchIndependence, TopKIdsIdenticalAcrossVariants) {
  const auto variants = simd::SupportedVariants();
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);

  struct Impl {
    const char* name;
    std::function<std::unique_ptr<VectorIndex>()> make;
  };
  const Impl impls[] = {
      {"flat", [] { return std::unique_ptr<VectorIndex>(
                        std::make_unique<FlatIndex>(kDim)); }},
      {"ivf", [] {
         IvfOptions opts;
         opts.num_lists = 8;
         opts.num_probes = 8;  // full probing: candidate set is exact
         return std::unique_ptr<VectorIndex>(
             std::make_unique<IvfIndex>(kDim, opts));
       }},
      {"hnsw", [] { return std::unique_ptr<VectorIndex>(
                        std::make_unique<HnswIndex>(kDim)); }},
  };

  // Generated once, outside every forced variant: Normalize runs on the
  // active kernels, so vectors drawn under different variants would differ
  // in the last bit.
  Rng rng(99);
  std::vector<Vector> corpus, queries;
  for (VectorId i = 0; i < kN; ++i) corpus.push_back(RandomUnit(kDim, rng));
  for (std::size_t q = 0; q < kQueries; ++q) {
    queries.push_back(RandomUnit(kDim, rng));
  }

  for (const auto& impl : impls) {
    std::vector<std::vector<SearchResult>> per_variant;
    for (const auto v : variants) {
      ScopedVariant forced(v);
      auto idx = impl.make();
      for (VectorId i = 0; i < kN; ++i) idx->Add(i, corpus[i]);
      std::vector<SearchResult> results;
      for (const auto& query : queries) {
        for (const auto& r : idx->Search(query, kTopK, -1.0)) {
          const auto stored = idx->Get(r.id);
          ASSERT_TRUE(stored.has_value()) << impl.name << " id " << r.id;
          EXPECT_EQ(r.similarity,
                    scalar.dot(query.data(), stored->data(), kDim))
              << impl.name << " under " << simd::VariantName(v) << ": id "
              << r.id << " similarity is not the exact scalar dot";
          results.push_back(r);
        }
      }
      per_variant.push_back(std::move(results));
    }
    for (std::size_t i = 1; i < per_variant.size(); ++i) {
      ASSERT_EQ(per_variant[i].size(), per_variant[0].size()) << impl.name;
      for (std::size_t j = 0; j < per_variant[0].size(); ++j) {
        EXPECT_EQ(per_variant[i][j].id, per_variant[0][j].id)
            << impl.name << ": " << simd::VariantName(variants[i])
            << " disagrees with " << simd::VariantName(variants[0])
            << " at result " << j;
        EXPECT_EQ(per_variant[i][j].similarity, per_variant[0][j].similarity)
            << impl.name << ": " << simd::VariantName(variants[i])
            << " disagrees with " << simd::VariantName(variants[0])
            << " at result " << j;
      }
    }
  }
}

}  // namespace
}  // namespace cortex
