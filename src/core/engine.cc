#include "core/engine.h"

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/ivf_index.h"

namespace cortex {

std::unique_ptr<VectorIndex> MakeIndex(IndexType type, std::size_t dimension) {
  switch (type) {
    case IndexType::kFlat:
      return std::make_unique<FlatIndex>(dimension);
    case IndexType::kIvf:
      return std::make_unique<IvfIndex>(dimension);
    case IndexType::kHnsw:
      return std::make_unique<HnswIndex>(dimension);
  }
  return std::make_unique<FlatIndex>(dimension);
}

std::unique_ptr<EvictionPolicy> MakeEviction(EvictionKind kind) {
  switch (kind) {
    case EvictionKind::kLcfu:
      return std::make_unique<LcfuPolicy>();
    case EvictionKind::kLru:
      return std::make_unique<LruPolicy>();
    case EvictionKind::kLfu:
      return std::make_unique<LfuPolicy>();
  }
  return std::make_unique<LcfuPolicy>();
}

}  // namespace cortex
