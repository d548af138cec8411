// Eviction policies (paper §4.3, Algorithm 2).
//
// LCFU — Least Cost-efficient and Frequently Used — scores each SE by the
// savings it buys per byte: log-damped frequency x retrieval cost x
// retrieval latency x staticity, normalised by size.  Expired items score
// zero.  LRU and LFU are provided as the Table-6 baselines.
//
// Contract: a score may depend on the clock only through expiry.  For an
// SE that is unexpired at both t1 and t2, Score(se, t1) == Score(se, t2).
// SemanticCache relies on it: it keeps its entries in an index ordered by
// score, computed once per change to an entry's fields, and every eviction
// runs right after the TTL purge, when no resident entry is expired.  A
// policy whose score ages with `now` (e.g. a decayed frequency) would need
// that index rebuilt on every eviction.
#pragma once

#include <string>

#include "core/semantic_element.h"

namespace cortex {

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  // Priority of retaining `se` at time `now`; the lowest-scoring item is
  // evicted first.  Zero means "evict immediately" (expired/empty).
  virtual double Score(const SemanticElement& se, double now) const = 0;

  virtual std::string name() const = 0;
};

// Algorithm 2's CalScore, including the paper's normalisation notes: the
// +1 shifts keep each log factor positive (cost-per-request is < $1, so a
// bare log would go negative), and the product is divided by size so the
// cache keeps items that save the most time and money per byte.
class LcfuPolicy final : public EvictionPolicy {
 public:
  double Score(const SemanticElement& se, double now) const override;
  std::string name() const override { return "lcfu"; }
};

class LruPolicy final : public EvictionPolicy {
 public:
  double Score(const SemanticElement& se, double now) const override;
  std::string name() const override { return "lru"; }
};

class LfuPolicy final : public EvictionPolicy {
 public:
  double Score(const SemanticElement& se, double now) const override;
  std::string name() const override { return "lfu"; }
};

}  // namespace cortex
