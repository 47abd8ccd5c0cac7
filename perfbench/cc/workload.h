#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "sketch/stream_summary.h"
#include "stream/update.h"

namespace perfbench {

using sketch::StreamUpdate;
using sketch::server::SketchType;

/// Request kinds the load generator sends; the per-opcode counts are kept
/// in this order.
enum class Op : uint8_t { kIngest = 0, kPointBatch, kHeavyHitters, kSnapshot };
inline constexpr int kNumOps = 4;
const char* OpName(Op op);

/// One served sketch: how it is created (or restored) at set-up and the
/// stream it starts from.
struct SketchSpec {
  std::string name;
  SketchType type = SketchType::kCountMin;
  /// CreateSketch parameters; for a restored sketch they describe the
  /// geometry of the blob.
  std::array<uint64_t, 5> params{};
  /// Updates already in the sketch when the timed phase starts (the
  /// snapshot content of a restored sketch; empty for a created one).
  std::vector<StreamUpdate> base;
  /// Snapshot restored at set-up; empty = CreateSketch.
  std::vector<uint8_t> restore_blob;
};

/// One request with its decoded content and its pre-encoded frame.
struct Request {
  Op op = Op::kIngest;
  int sketch = 0;  ///< index into Workload::sketches
  std::shared_ptr<const std::vector<StreamUpdate>> updates;  ///< kIngest
  std::vector<uint64_t> keys;                                ///< kPointBatch
  double phi = 0.0;                                          ///< kHeavyHitters
  std::vector<uint8_t> frame;
};

/// A run of requests written with one write() and answered before the
/// next window is sent (closed loop).
struct Window {
  std::size_t first = 0;  ///< index of its first request in Connection::cycle
  std::size_t count = 0;
  std::vector<uint8_t> bytes;  ///< the frames of its requests, concatenated
};

/// One client connection: it cycles through `windows` in order.
struct Connection {
  std::string role;
  std::vector<Request> cycle;
  std::vector<Window> windows;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::vector<SketchSpec> sketches;
  std::vector<Connection> connections;
};

inline const char* const kWorkloadNames[] = {"bulk_ingest", "small_frames",
                                             "read_mix"};

/// Builds every input of `name` from `seed`: sketch geometry, snapshot
/// blobs, and the encoded request frames of every connection. False if the
/// name is unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// StreamSummary options from a kStreamSummary spec's CreateSketch
/// parameters {log_universe, width, depth, verify_width, seed}.
sketch::StreamSummary::Options SummaryOptions(const SketchSpec& spec);

/// Frames the request encodes to (used to build windows and to re-encode
/// requests in the traced run).
std::vector<uint8_t> EncodeRequest(const Workload& workload,
                                   const Request& request);

/// Concatenation of every connection's window bytes plus the restore
/// blobs: equal seeds must give equal bytes.
std::vector<uint8_t> WorkloadBytes(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
