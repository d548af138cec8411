// Microbenchmark for the SIMD distance-kernel layer (embedding/simd_kernels).
//
// Measures ns/vector and effective memory bandwidth for the batched dot
// kernel — the operation behind every FlatIndex scan, IVF probe, and HNSW
// neighbour expansion — at the embedding dims that matter in practice
// (hashed embedder = 256; common sentence-transformer/OpenAI dims = 64 /
// 768 / 1536), for every kernel variant this binary + CPU supports.
//
// Flags:
//   --json          also write BENCH_vector_ops.json (variant, dim,
//                   ns/vector, GB/s) for machine consumption, with the
//                   CMAKE_BUILD_TYPE it was built as: the scalar kernels'
//                   codegen depends on it, so bench_diff refuses a
//                   baseline from another build type
//   --csv           CSV tables instead of aligned text
//   --rows=N        rows in the scanned block (default 4096)
//   --min-ms=M      per-measurement wall budget (default 200 ms)
//
// A second table covers the quantized scan tier (DESIGN.md §13): the same
// batched dot at f32 / i8 row encodings with slab-style padded
// strides, reporting bytes streamed per scored vector — the number the
// int8 path exists to shrink.  A third, `columns`, times the snapshot
// scan's column kernel: the same i8 rows stored dimension-major in
// 32-row blocks, scored by a query with 20 nonzero codes (what the hashed
// embedder produces) and by one with every code nonzero, against the
// row-major gather kernel on the same rows and query.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <vector>

#include "embedding/simd_kernels.h"
#include "embedding/vector_slab.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

using namespace cortex;

namespace {

struct Measurement {
  const char* variant;
  std::size_t dim;
  double ns_per_vector;
  double gb_per_sec;
  double speedup_vs_scalar;  // filled in after the scalar row is known
};

double MeasureNsPerVector(const simd::KernelSet& kernels, const float* query,
                          const float* rows, std::size_t n, std::size_t dim,
                          double min_ms, double& checksum) {
  std::vector<float> out(n);
  // Warm-up pass: faults pages, primes caches and the branch predictor.
  kernels.dot_batch(query, rows, n, dim, dim, out.data());
  checksum += static_cast<double>(out[n - 1]);

  const auto start = std::chrono::steady_clock::now();
  std::size_t iters = 0;
  double elapsed_ns = 0.0;
  do {
    kernels.dot_batch(query, rows, n, dim, dim, out.data());
    checksum += static_cast<double>(out[n - 1]);  // defeat dead-code elim
    ++iters;
    elapsed_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  } while (elapsed_ns < min_ms * 1e6);
  return elapsed_ns / (static_cast<double>(iters) * static_cast<double>(n));
}

struct QuantMeasurement {
  const char* variant;
  const char* format;
  std::size_t dim;
  double ns_per_vector;
  double bytes_per_vector;
  double gb_per_sec;
  double speedup_vs_f32;  // filled in after the f32 row is known
};

// Times one (variant, format, dim) cell over a VectorSlab's rows via the
// gather kernels — the exact call shape of the engine's snapshot scan.
double MeasureQuantNsPerVector(const simd::KernelSet& kernels,
                               RowFormat format, const VectorSlab& slab,
                               const std::vector<float>& query, std::size_t n,
                               double min_ms, double& checksum) {
  const std::size_t dim = query.size();
  std::vector<float> out(n);
  std::vector<std::int8_t> qi8(dim);
  float qscale = 0.0f;
  std::vector<const float*> rows_f32;
  std::vector<const std::int8_t*> rows_i8;
  std::vector<float> scales;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (format == RowFormat::kI8) {
      rows_i8.push_back(slab.RowI8(i));
      scales.push_back(slab.RowScale(i));
    } else {
      rows_f32.push_back(slab.Row(i));
    }
  }
  const auto scan = [&] {
    if (format == RowFormat::kI8) {
      // The engine quantizes the query once per probe, i.e. once per scan
      // call — keep that cost inside the timed region.
      qscale = simd::QuantizeRowI8(query, qi8.data());
      kernels.dot_rows_i8(qi8.data(), qscale, rows_i8.data(), scales.data(),
                          n, dim, out.data());
    } else {
      kernels.dot_rows(query.data(), rows_f32.data(), n, dim, out.data());
    }
  };
  scan();  // warm-up: faults pages, primes caches
  checksum += static_cast<double>(out[n - 1]);

  const auto start = std::chrono::steady_clock::now();
  std::size_t iters = 0;
  double elapsed_ns = 0.0;
  do {
    scan();
    checksum += static_cast<double>(out[n - 1]);
    ++iters;
    elapsed_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  } while (elapsed_ns < min_ms * 1e6);
  return elapsed_ns / (static_cast<double>(iters) * static_cast<double>(n));
}

struct ColumnMeasurement {
  const char* variant;
  std::size_t dim;
  std::size_t nonzeros;
  double ns_per_vector;
  double code_bytes_per_vector;
  double speedup_vs_gather;
};

// Runs `scan` for at least min_ms after a warm-up call; ns per scan.
template <typename Scan>
double TimeScan(const Scan& scan, double min_ms) {
  scan();
  const auto start = std::chrono::steady_clock::now();
  std::size_t iters = 0;
  double elapsed_ns = 0.0;
  do {
    scan();
    ++iters;
    elapsed_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  } while (elapsed_ns < min_ms * 1e6);
  return elapsed_ns / static_cast<double>(iters);
}

// Times the column kernel and the gather kernel over the same n rows for
// one (variant, dim, query) cell.  Both timed scans include the per-probe
// query work the engine does: quantization, and for the column kernel
// listing the nonzero codes in pairs.
ColumnMeasurement MeasureColumns(simd::Variant variant,
                                 const std::vector<float>& query,
                                 const VectorSlab& slab, std::size_t n,
                                 double min_ms, double& checksum) {
  constexpr std::size_t kRows = simd::kI8BlockRows;
  const simd::KernelSet& kernels = simd::KernelsFor(variant);
  const std::size_t dim = query.size();
  const std::size_t blocks = (n + kRows - 1) / kRows;
  // Dimension-major blocks in one buffer, 32-byte aligned like a
  // snapshot chunk's code block.
  std::vector<std::int8_t> storage(blocks * kRows * dim + 31);
  std::int8_t* codes =
      storage.data() +
      (-reinterpret_cast<std::uintptr_t>(storage.data()) & 31);
  std::vector<float> scales(blocks * kRows);
  std::vector<const std::int8_t*> rows(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    rows[i] = slab.RowI8(i);
    scales[i] = slab.RowScale(i);
    for (std::size_t d = 0; d < dim; ++d) {
      codes[((i / kRows) * dim + d) * kRows + i % kRows] = rows[i][d];
    }
  }

  std::vector<float> out(blocks * kRows);
  std::vector<std::int8_t> q8(dim);
  std::vector<std::uint32_t> cols;
  std::vector<std::int16_t> weights;
  const auto columns = [&] {
    const float qscale = simd::QuantizeRowI8(query, q8.data());
    const std::size_t pairs = simd::NonzeroPairsI8(q8, cols, weights);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::int8_t* block = codes + b * kRows * dim;
      kernels.dot_cols_i8(cols.data(), weights.data(), pairs, block,
                          b + 1 < blocks ? block + kRows * dim : nullptr,
                          qscale, scales.data() + b * kRows,
                          out.data() + b * kRows);
    }
    checksum += static_cast<double>(out[n - 1]);
  };
  const auto gather = [&] {
    const float qscale = simd::QuantizeRowI8(query, q8.data());
    kernels.dot_rows_i8(q8.data(), qscale, rows.data(), scales.data(), n, dim,
                        out.data());
    checksum += static_cast<double>(out[n - 1]);
  };
  const double col_ns = TimeScan(columns, min_ms) / static_cast<double>(n);
  const double gather_ns = TimeScan(gather, min_ms) / static_cast<double>(n);
  const auto nonzeros = static_cast<std::size_t>(
      std::count_if(q8.begin(), q8.end(), [](std::int8_t c) { return c; }));
  return {simd::VariantName(variant), dim, nonzeros, col_ns,
          static_cast<double>(cols.size()), gather_ns / col_ns};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool csv = flags.GetBool("csv", false);
  const bool json = flags.GetBool("json", false);
  const auto n = static_cast<std::size_t>(flags.GetInt("rows", 4096));
  const double min_ms = flags.GetDouble("min-ms", 200.0);

  const auto variants = simd::SupportedVariants();
  std::cout << "=== SIMD kernel throughput (dot_batch, " << n
            << " rows/call) ===\n";
  std::cout << "active dispatch: "
            << simd::VariantName(simd::ActiveVariant()) << "\n\n";

  std::vector<Measurement> all;
  double checksum = 0.0;
  TextTable table({"dim", "variant", "ns/vector", "GB/s", "vs scalar"});
  for (const std::size_t dim : {std::size_t{64}, std::size_t{256},
                                std::size_t{768}, std::size_t{1536}}) {
    Rng rng(17);
    std::vector<float> rows(n * dim), query(dim);
    for (auto& x : rows) x = static_cast<float>(rng.Normal());
    for (auto& x : query) x = static_cast<float>(rng.Normal());

    double scalar_ns = 0.0;
    for (const auto v : variants) {
      const double ns =
          MeasureNsPerVector(simd::KernelsFor(v), query.data(), rows.data(),
                             n, dim, min_ms, checksum);
      if (v == simd::Variant::kScalar) scalar_ns = ns;
      // Bytes streamed per scored vector: the row itself (the query stays
      // in registers/L1 across the whole batch).
      const double gbps = static_cast<double>(dim) * 4.0 / ns;
      const double speedup = scalar_ns > 0.0 ? scalar_ns / ns : 1.0;
      all.push_back({simd::VariantName(v), dim, ns, gbps, speedup});
      table.AddRow({TextTable::Num(static_cast<double>(dim), 0),
                    simd::VariantName(v), TextTable::Num(ns, 2),
                    TextTable::Num(gbps, 2),
                    TextTable::Num(speedup, 2) + "x"});
    }
  }
  table.Print(std::cout, csv);
  std::cout << "(checksum " << checksum << ")\n";

  std::cout << "\n=== quantized scan tier (dot_rows gather, " << n
            << " rows/call) ===\n\n";
  std::vector<QuantMeasurement> quant;
  TextTable qtable(
      {"dim", "variant", "format", "ns/vector", "B/vector", "GB/s",
       "vs f32"});
  for (const std::size_t dim : {std::size_t{64}, std::size_t{256},
                                std::size_t{768}, std::size_t{1536}}) {
    Rng rng(17);
    std::vector<float> query(dim), row(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    for (const auto v : variants) {
      double f32_ns = 0.0;
      for (const RowFormat format : {RowFormat::kF32, RowFormat::kI8}) {
        VectorSlab slab(dim, format);
        Rng row_rng(29);
        for (std::size_t i = 0; i < n; ++i) {
          for (auto& x : row) x = static_cast<float>(row_rng.Normal());
          slab.Add(row);
        }
        const double ns =
            MeasureQuantNsPerVector(simd::KernelsFor(v), format, slab, query,
                                    n, min_ms, checksum);
        if (format == RowFormat::kF32) f32_ns = ns;
        const auto bytes = static_cast<double>(slab.row_bytes());
        const double gbps = bytes / ns;
        const double speedup = f32_ns > 0.0 ? f32_ns / ns : 1.0;
        quant.push_back({simd::VariantName(v), RowFormatName(format), dim, ns,
                         bytes, gbps, speedup});
        qtable.AddRow({TextTable::Num(static_cast<double>(dim), 0),
                       simd::VariantName(v), RowFormatName(format),
                       TextTable::Num(ns, 2), TextTable::Num(bytes, 0),
                       TextTable::Num(gbps, 2),
                       TextTable::Num(speedup, 2) + "x"});
      }
    }
  }
  qtable.Print(std::cout, csv);
  std::cout << "(checksum " << checksum << ")\n";

  std::cout << "\n=== i8 column kernel (dimension-major 32-row blocks, " << n
            << " rows/call) ===\n\n";
  std::vector<ColumnMeasurement> columns;
  TextTable ctable({"dim", "variant", "nonzero codes", "ns/vector",
                    "code B/vector", "vs gather"});
  for (const std::size_t dim : {std::size_t{64}, std::size_t{256},
                                std::size_t{768}, std::size_t{1536}}) {
    VectorSlab slab(dim, RowFormat::kI8);
    Rng row_rng(29);
    std::vector<float> row(dim);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& x : row) x = static_cast<float>(row_rng.Normal());
      slab.Add(row);
    }
    for (const std::size_t nonzeros : {std::size_t{20}, dim}) {
      // Entries of magnitude 0.5..1.5 never quantize to 0, so the query
      // has exactly `nonzeros` nonzero codes, at distinct dimensions (the
      // step 7 is coprime with every dim here).
      Rng rng(17);
      std::vector<float> query(dim, 0.0f);
      const auto start = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(dim) - 1));
      for (std::size_t k = 0; k < nonzeros; ++k) {
        const double mag = rng.Uniform(0.5, 1.5);
        query[(start + 7 * k) % dim] =
            static_cast<float>(rng.NextDouble() < 0.5 ? -mag : mag);
      }
      for (const auto v : variants) {
        const ColumnMeasurement m =
            MeasureColumns(v, query, slab, n, min_ms, checksum);
        columns.push_back(m);
        ctable.AddRow({TextTable::Num(static_cast<double>(dim), 0), m.variant,
                       TextTable::Num(static_cast<double>(m.nonzeros), 0),
                       TextTable::Num(m.ns_per_vector, 2),
                       TextTable::Num(m.code_bytes_per_vector, 0),
                       TextTable::Num(m.speedup_vs_gather, 2) + "x"});
      }
    }
  }
  ctable.Print(std::cout, csv);
  std::cout << "(checksum " << checksum << ")\n";

  if (json) {
    std::ofstream out("BENCH_vector_ops.json");
    out << "{\n  \"benchmark\": \"vector_ops\",\n  \"build_type\": \""
        << CORTEX_BUILD_TYPE << "\",\n  \"active_variant\": \""
        << simd::VariantName(simd::ActiveVariant())
        << "\",\n  \"rows_per_call\": " << n << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& m = all[i];
      out << "    {\"variant\": \"" << m.variant << "\", \"dim\": " << m.dim
          << ", \"ns_per_vector\": " << m.ns_per_vector
          << ", \"gb_per_sec\": " << m.gb_per_sec
          << ", \"speedup_vs_scalar\": " << m.speedup_vs_scalar << "}"
          << (i + 1 < all.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"quantized\": [\n";
    for (std::size_t i = 0; i < quant.size(); ++i) {
      const auto& m = quant[i];
      out << "    {\"variant\": \"" << m.variant << "\", \"format\": \""
          << m.format << "\", \"dim\": " << m.dim
          << ", \"ns_per_vector\": " << m.ns_per_vector
          << ", \"bytes_per_vector\": " << m.bytes_per_vector
          << ", \"gb_per_sec\": " << m.gb_per_sec
          << ", \"speedup_vs_f32\": " << m.speedup_vs_f32 << "}"
          << (i + 1 < quant.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"columns\": [\n";
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const auto& m = columns[i];
      out << "    {\"variant\": \"" << m.variant << "\", \"dim\": " << m.dim
          << ", \"nonzeros\": " << m.nonzeros
          << ", \"ns_per_vector\": " << m.ns_per_vector
          << ", \"code_bytes_per_vector\": " << m.code_bytes_per_vector
          << ", \"speedup_vs_gather\": " << m.speedup_vs_gather << "}"
          << (i + 1 < columns.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote BENCH_vector_ops.json\n";
  }
  return 0;
}
