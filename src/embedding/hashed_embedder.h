// HashedEmbedder: deterministic bag-of-features text embedding.
//
// Stands in for the paper's Qwen3-Embedding-0.6B.  Each content token (and,
// at lower weight, each adjacent-token bigram) is feature-hashed into a few
// signed slots of a dense vector; the result is L2-normalised.  Properties
// the cache relies on, and which this model provides by construction:
//
//   * paraphrases that share content words embed close together (word order
//     and function words barely move the vector);
//   * queries about different topics that share a surface token ("apple
//     nutrition facts" vs "apple stock price") land *near* each other in
//     cosine space but not identical — exactly the false-positive regime
//     that makes the semantic judger load-bearing (paper §3.2, Fig. 13).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>

#include "embedding/embedder.h"
#include "util/tokenizer.h"

namespace cortex {

struct HashedEmbedderOptions {
  std::size_t dimension = 256;
  // Number of signed slots each feature is hashed into.
  std::size_t slots_per_feature = 4;
  // Relative weight of adjacent-token bigram features (order sensitivity).
  double bigram_weight = 0.1;
  // Sublinear term-frequency: weight = 1 + log(tf) instead of tf.
  bool sublinear_tf = true;
  // Seed for the feature-hash family; changing it yields a different model.
  std::uint64_t hash_seed = 0x9e3779b97f4a7c15ULL;
};

class HashedEmbedder final : public Embedder {
 public:
  explicit HashedEmbedder(HashedEmbedderOptions options = {});

  Vector Embed(std::string_view text) const override;
  std::size_t dimension() const noexcept override {
    return options_.dimension;
  }

  // Embeds `text` into caller-provided storage of exactly dimension()
  // floats (zero-filled here first).  Embed() routes through this, so the
  // written floats are bit-identical to an Embed() of the same text.
  void EmbedInto(std::string_view text, std::span<float> out) const;

  // Batched embedding into one matrix: row q lands at out + q*stride
  // (stride >= dimension(), in elements).  Each row is bit-identical to
  // Embed(texts[q]).
  void EmbedBatch(std::span<const std::string_view> texts, float* out,
                  std::size_t stride) const;

  // Fits inverse-document-frequency weights from a corpus of texts.
  // Generic words that appear in many documents ("read file X" vs "show X")
  // are down-weighted so the discriminative content tokens dominate the
  // vector — the property real sentence encoders have and pure feature
  // hashing lacks.  Callable repeatedly; each call refits from scratch.
  void FitIdf(std::span<const std::string> corpus);
  bool has_idf() const noexcept { return !idf_.empty(); }
  // Weight of a token under the fitted model (1.0 when unfitted/unseen).
  double IdfWeight(std::string_view token) const;

 private:
  void AddFeature(std::span<float> v, std::string_view feature,
                  double weight) const noexcept;

  HashedEmbedderOptions options_;
  Tokenizer tokenizer_;
  std::unordered_map<std::string, double> idf_;
  double default_idf_ = 1.0;  // weight for tokens unseen during fitting
};

}  // namespace cortex
