// Semantic placement: where a piece of knowledge lives in the sharded tier
// of the paper's Fig. 4 deployment.
//
// Routing must send every paraphrase of a piece of knowledge to the same
// place even though the strings differ — exact-key hashing would scatter
// them.  Cortex places a query by its most *discriminative* token (highest
// IDF under the shared embedder): content words survive paraphrasing, so
// "everest height please" and "what is the height of everest" land
// together.  The serving engine's shard choice (serve/concurrent_engine)
// and the cluster router's ring key (cluster/router) both come from here,
// so one module holds the placement decision.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "embedding/hashed_embedder.h"
#include "util/tokenizer.h"

namespace cortex {

// The placement anchor: the query's most discriminative token (max IDF
// under the shared embedder, ties broken lexicographically), or the whole
// query when tokenization yields nothing.  Every phrasing of a piece of
// knowledge maps to the same anchor, so hot semantic neighbourhoods stay
// co-resident.  Deterministic and read-only; safe to call concurrently as
// long as the embedder's IDF table is not being refit.
std::string PlacementAnchor(const HashedEmbedder& embedder,
                            const Tokenizer& tokenizer,
                            std::string_view query);

// Shard index for a query: the anchor's hash modulo `num_shards`.  Same
// concurrency contract as PlacementAnchor.
std::size_t RouteToShard(const HashedEmbedder& embedder,
                         const Tokenizer& tokenizer, std::string_view query,
                         std::size_t num_shards);

}  // namespace cortex
