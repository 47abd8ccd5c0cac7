#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. Spans of one request share `id`; nesting is by
/// time containment on the same recorder (thread).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends. Recording
/// stops silently at `capacity` spans (the count of dropped spans is
/// kept) so a long traced run cannot grow without bound.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 1u << 20) : capacity_(capacity) {
    spans_.reserve(capacity < 4096 ? capacity : 4096);
  }

  void Record(const char* name, uint64_t id, uint64_t start_ns,
              uint64_t end_ns) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, id, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Total and self time per span name: self time is the span's duration
/// minus the part of it covered by its direct children.
struct LayerTime {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};
std::map<std::string, LayerTime> SelfTimes(
    const std::vector<const SpanRecorder*>& threads);

/// Writes the spans as Chrome trace-event JSON (loadable in Perfetto),
/// one track per recorder. False if the file cannot be written.
bool WriteTrace(const std::string& path,
                const std::vector<const SpanRecorder*>& threads,
                const std::vector<std::string>& thread_names);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
