// Factories for the cache's pluggable parts: the stage-1 ANN index family
// (Flat / IVF / HNSW, for standalone SemanticCache and Sine instances and
// the bench_ann ablation) and the eviction policy (the paper's LCFU, or
// the LRU/LFU baselines of Table 6).  The engine that serves lookups is
// serve/concurrent_engine.h.
#pragma once

#include <cstddef>
#include <memory>

#include "ann/vector_index.h"
#include "core/eviction.h"

namespace cortex {

enum class IndexType { kFlat, kIvf, kHnsw };
enum class EvictionKind { kLcfu, kLru, kLfu };

std::unique_ptr<VectorIndex> MakeIndex(IndexType type, std::size_t dimension);
std::unique_ptr<EvictionPolicy> MakeEviction(EvictionKind kind);

}  // namespace cortex
