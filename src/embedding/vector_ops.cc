#include "embedding/vector_ops.h"

#include <cmath>

#include "embedding/simd_kernels.h"
#include "util/check.h"

namespace cortex {

// The scalar entry points are thin wrappers over the runtime-dispatched
// kernel layer (simd_kernels.h), so every caller — embedder, kmeans,
// indexes — picks up the SIMD variant selected at startup for free.

double Dot(std::span<const float> a, std::span<const float> b) noexcept {
  DCHECK_EQ(a.size(), b.size());
  return simd::DotUnit(a, b);
}

double L2Norm(std::span<const float> v) noexcept {
  return std::sqrt(Dot(v, v));
}

double L2DistanceSquared(std::span<const float> a,
                         std::span<const float> b) noexcept {
  DCHECK_EQ(a.size(), b.size());
  return simd::L2Sq(a, b);
}

double CosineSimilarity(std::span<const float> a,
                        std::span<const float> b) noexcept {
  const double na = L2Norm(a);
  const double nb = L2Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

bool NearlyUnitNorm(std::span<const float> v, double tolerance) noexcept {
  return std::abs(L2Norm(v) - 1.0) <= tolerance;
}

void Normalize(std::span<float> v) noexcept {
  const double n = L2Norm(v);
  if (n == 0.0) return;
  const auto inv = static_cast<float>(1.0 / n);
  for (auto& x : v) x *= inv;
}

void AddInPlace(std::span<float> a, std::span<const float> b) noexcept {
  DCHECK_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void ScaleInPlace(std::span<float> a, float s) noexcept {
  for (auto& x : a) x *= s;
}

}  // namespace cortex
