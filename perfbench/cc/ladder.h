#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workload.h"

namespace perfbench {

/// live[c][k]: how often a live run completed window k of connection c.
using LiveWindows = std::vector<std::vector<uint64_t>>;
/// ns[c][k]: the in-process cost of window k of connection c.
using WindowNs = std::vector<std::vector<double>>;

struct LadderResult {
  /// The kernels.*, sketch.*, protocol.* and service.* per-layer metrics.
  std::map<std::string, double> metrics;
  /// The daemon's in-process layers (FrameDecoder, then
  /// SketchService::HandleFrames) for each window of the first connection,
  /// replayed alone on one thread; 0 for the other connections' windows.
  WindowNs first_connection_ns;
};

/// Replays the workload's generated requests in-process through the
/// public functions of each module — BlockHasher (kernels), the sketch
/// classes (sketch), the sketchwire codec (protocol) and SketchService
/// (service). The service.handle and service.self figures weight each
/// window by `live`. Each timed pass is recorded as a span.
LadderResult RunLadder(const Workload& workload, const LiveWindows& live, SpanRecorder* spans);

/// Per-request cost of `window_ns`, each window weighted by how often a
/// live run completed it.
double LiveNsPerReq(const Workload& workload, const LiveWindows& live, const WindowNs& window_ns);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
