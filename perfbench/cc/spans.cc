#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::map<std::string, LayerTime> SelfTimes(
    const std::vector<const SpanRecorder*>& threads) {
  std::map<std::string, LayerTime> out;
  for (const SpanRecorder* rec : threads) {
    std::vector<Span> spans = rec->spans();
    // Parents first: earlier start, and on a tie the longer span.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.end_ns > b.end_ns;
    });
    std::vector<uint64_t> child_ns(spans.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()].end_ns <= spans[i].start_ns) {
        open.pop_back();
      }
      if (!open.empty() && spans[i].end_ns <= spans[open.back()].end_ns) {
        child_ns[open.back()] += spans[i].end_ns - spans[i].start_ns;
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerTime& t = out[spans[i].name];
      const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  return out;
}

bool WriteTrace(const std::string& path,
                const std::vector<const SpanRecorder*>& threads,
                const std::vector<std::string>& thread_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const SpanRecorder* rec : threads) {
    for (const Span& s : rec->spans()) t0 = std::min(t0, s.start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t + 1, thread_names[t].c_str());
    first = false;
    for (const Span& s : threads[t]->spans()) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu}}",
                   s.name, t + 1,
                   static_cast<double>(s.start_ns - t0) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                   static_cast<unsigned long long>(s.id));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
