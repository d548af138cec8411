#include "core/placement.h"

#include <cstdint>

#include "util/rng.h"

namespace cortex {

namespace {

std::uint64_t HashToken(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

std::string PlacementAnchor(const HashedEmbedder& embedder,
                            const Tokenizer& tokenizer,
                            std::string_view query) {
  const auto tokens = tokenizer.Tokenize(query);
  if (tokens.empty()) {
    return std::string(query);
  }
  // Anchor on the most discriminative token: max IDF weight, ties broken
  // by lexicographic order so the choice is deterministic across
  // paraphrases.
  const std::string* anchor = &tokens.front();
  double best_weight = embedder.IdfWeight(*anchor);
  for (const auto& token : tokens) {
    const double weight = embedder.IdfWeight(token);
    if (weight > best_weight || (weight == best_weight && token < *anchor)) {
      best_weight = weight;
      anchor = &token;
    }
  }
  return *anchor;
}

std::size_t RouteToShard(const HashedEmbedder& embedder,
                         const Tokenizer& tokenizer, std::string_view query,
                         std::size_t num_shards) {
  return HashToken(PlacementAnchor(embedder, tokenizer, query)) % num_shards;
}

}  // namespace cortex
