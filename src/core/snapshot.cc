#include "core/snapshot.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace cortex {

namespace {

// CRC32C (Castagnoli), reflected, one table lookup per byte.
constexpr std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

// Extends `crc` (0 for an empty prefix) with `n` bytes.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc = kCrc32cTable[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

template <typename T>
void WritePod(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

// Writes one section to `out`, folding the writer's clock and every byte
// into the section CRC.
class SectionWriter {
 public:
  SectionWriter(std::ostream& out, double writer_now,
                std::uint64_t entry_count)
      : out_(out), crc_(Crc32cExtend(0, &writer_now, sizeof writer_now)) {
    Pod(entry_count);
  }

  void Element(const SemanticElement& se) {
    String(se.key);
    String(se.value);
    Pod<std::uint64_t>(se.embedding.size());
    Bytes(se.embedding.data(), se.embedding.size() * sizeof(float));
    Pod(se.staticity);
    Pod(se.frequency);
    Pod(se.retrieval_latency_sec);
    Pod(se.retrieval_cost_dollars);
    Pod(se.created_at);
    Pod(se.last_access);
    Pod(se.expiration_time);
    String(se.tenant);
    Pod<std::uint32_t>(se.shareable ? 1 : 0);
  }

  void Finish() {
    WritePod(out_, crc_);
    if (!out_.good()) {
      throw std::runtime_error("snapshot: stream failure while writing");
    }
  }

 private:
  void Bytes(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    crc_ = Crc32cExtend(crc_, data, n);
  }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof v);
  }
  void String(const std::string& s) {
    Pod<std::uint64_t>(s.size());
    Bytes(s.data(), s.size());
  }

  std::ostream& out_;
  std::uint32_t crc_;
};

// Bounds-checked cursor over a whole blob: every length is checked against
// the bytes left before anything is allocated for it.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t pos() const { return pos_; }
  std::size_t left() const { return bytes_.size() - pos_; }

  template <typename T>
  T Pod() {
    Need(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  std::string String() {
    const auto n = Pod<std::uint64_t>();
    Need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  Vector Floats() {
    const auto n = Pod<std::uint64_t>();
    if (n > left() / sizeof(float)) Truncated();
    Vector v(n);
    if (n > 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return v;
  }

  SemanticElement Element() {
    SemanticElement se;
    se.key = String();
    se.value = String();
    se.embedding = Floats();
    se.staticity = Pod<double>();
    se.frequency = Pod<std::uint64_t>();
    se.retrieval_latency_sec = Pod<double>();
    se.retrieval_cost_dollars = Pod<double>();
    se.created_at = Pod<double>();
    se.last_access = Pod<double>();
    se.expiration_time = Pod<double>();
    se.tenant = String();
    se.shareable = Pod<std::uint32_t>() != 0;
    return se;
  }

 private:
  void Need(std::uint64_t n) const {
    if (n > left()) Truncated();
  }
  [[noreturn]] static void Truncated() {
    throw std::runtime_error("snapshot: truncated or oversized field");
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

void WriteSnapshotHeader(std::ostream& out, double writer_now,
                         std::uint64_t section_count) {
  WritePod(out, kSnapshotMagic);
  WritePod(out, kSnapshotVersion);
  WritePod(out, writer_now);
  WritePod(out, section_count);
}

void WriteSnapshotSection(std::ostream& out, double writer_now,
                          const SemanticCache& cache) {
  SectionWriter section(out, writer_now, cache.size());
  for (const auto& [id, se] : cache.entries()) section.Element(se);
  section.Finish();
}

void WriteSnapshotSection(std::ostream& out, double writer_now,
                          const std::vector<SemanticElement>& elements) {
  SectionWriter section(out, writer_now, elements.size());
  for (const SemanticElement& se : elements) section.Element(se);
  section.Finish();
}

DecodedSnapshot DecodeSnapshot(std::istream& in) {
  const std::string blob{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  if (in.bad()) throw std::runtime_error("snapshot: stream failure");
  Reader reader(blob);
  if (reader.Pod<std::uint32_t>() != kSnapshotMagic) {
    throw std::runtime_error("snapshot: bad magic");
  }
  if (const auto version = reader.Pod<std::uint32_t>();
      version != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  }
  DecodedSnapshot snapshot;
  snapshot.writer_now = reader.Pod<double>();
  if (!std::isfinite(snapshot.writer_now)) {
    throw std::runtime_error("snapshot: non-finite writer clock");
  }
  // Counts are not checked up front: every record and section consumes
  // bytes, so a count larger than the blob runs out of bytes and throws.
  const auto sections = reader.Pod<std::uint64_t>();
  const std::uint32_t crc_seed =
      Crc32cExtend(0, &snapshot.writer_now, sizeof snapshot.writer_now);
  for (std::uint64_t s = 0; s < sections; ++s) {
    const std::size_t start = reader.pos();
    const auto count = reader.Pod<std::uint64_t>();
    for (std::uint64_t i = 0; i < count; ++i) {
      snapshot.elements.push_back(reader.Element());
    }
    const std::uint32_t crc =
        Crc32cExtend(crc_seed, blob.data() + start, reader.pos() - start);
    if (reader.Pod<std::uint32_t>() != crc) {
      throw std::runtime_error("snapshot: section checksum mismatch");
    }
  }
  if (reader.left() != 0) throw std::runtime_error("snapshot: trailing bytes");
  return snapshot;
}

SnapshotStats RestoreSnapshot(
    DecodedSnapshot snapshot, double reader_now,
    const std::function<bool(SemanticElement)>& restore) {
  SnapshotStats stats;
  const double shift = reader_now - snapshot.writer_now;
  for (SemanticElement& se : snapshot.elements) {
    // Age and remaining TTL survive the clock change.  The clamp covers a
    // writer stamping its header before a concurrent insert: that entry
    // is as new as the snapshot, not dated into the reader's future.
    se.created_at = std::min(se.created_at + shift, reader_now);
    se.last_access = std::min(se.last_access + shift, reader_now);
    se.expiration_time += shift;
    if (se.ExpiredAt(reader_now)) {
      ++stats.entries_expired;
    } else if (restore(std::move(se))) {
      ++stats.entries_restored;
    } else {
      ++stats.entries_rejected;
    }
  }
  return stats;
}

SnapshotStats SaveCacheSnapshot(const SemanticCache& cache, std::ostream& out,
                                double now) {
  WriteSnapshotHeader(out, now, 1);
  WriteSnapshotSection(out, now, cache);
  SnapshotStats stats;
  stats.entries_written = cache.size();
  return stats;
}

SnapshotStats LoadCacheSnapshot(SemanticCache& cache, std::istream& in,
                                double now) {
  return RestoreSnapshot(DecodeSnapshot(in), now, [&](SemanticElement se) {
    return cache.RestoreElement(std::move(se), now).has_value();
  });
}

SnapshotStats SaveCacheSnapshotFile(const SemanticCache& cache,
                                    const std::string& path, double now) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open " + path);
  return SaveCacheSnapshot(cache, out, now);
}

SnapshotStats LoadCacheSnapshotFile(SemanticCache& cache,
                                    const std::string& path, double now) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  return LoadCacheSnapshot(cache, in, now);
}

}  // namespace cortex
