// In-memory span log for the traced benchmark run.
//
// Every span is recorded from the benchmark's own code around one call into
// a public function of the program (or copied from a RequestTrace the
// program already fills in).  A span has a name, start and end on the
// telemetry::WallSeconds() clock, the index of its parent span (kNoParent
// for a root) and the id of the request it belongs to.  Spans stay in
// memory while the run measures and are written out once, at exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  const char* name = "";  // a string literal; never owned
  double start = 0.0;     // seconds, telemetry::WallSeconds()
  double end = 0.0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;

  double seconds() const noexcept { return end - start; }
};

// One log per thread; merge the logs after the threads have joined.
class SpanLog {
 public:
  std::uint32_t Add(const char* name, double start, double end,
                    std::uint32_t parent, std::uint64_t request) {
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  // Closes a span opened with end 0 (a parent added before its children).
  void SetEnd(std::uint32_t span, double end) { spans_[span].end = end; }

  // Appends `other`, re-basing its parent indices onto this log.
  void Merge(const SpanLog& other) {
    const auto base = static_cast<std::uint32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent != kNoParent) s.parent += base;
      spans_.push_back(s);
    }
  }

  // Durations, in seconds, of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.seconds());
    }
    return out;
  }

  // Tab-separated: id, parent (-1 for a root), request, name, start_ns,
  // end_ns.  Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%.0f\t%.0f\n", i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   s.start * 1e9, s.end * 1e9);
    }
    return std::fclose(f) == 0;
  }

  std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
