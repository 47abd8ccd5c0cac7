#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "workload.h"

namespace perfbench {

/// Exact frequencies of one sketch's stream: the base it was restored
/// from plus every acknowledged ingest frame, summed in a plain sorted
/// table.
struct Truth {
  std::vector<std::pair<uint64_t, int64_t>> counts;  ///< by key, nonzero only
  int64_t mass = 0;          ///< sum of deltas
  uint64_t abs_deltas = 0;   ///< sum of |delta|
  int64_t Of(uint64_t key) const;
};

/// `acks[c][i]` = completions of request i of connection c's cycle.
std::vector<Truth> ComputeTruth(
    const Workload& workload,
    const std::vector<std::vector<uint64_t>>& acks);

/// Keys to read back after the run: the heaviest keys, a seeded sample of
/// the other present keys, and keys the stream never touched.
std::vector<uint64_t> ChooseCheckKeys(const Truth& truth, uint64_t seed,
                                      uint64_t key_mask);

/// The daemon's final state, read after the timed phase.
struct Observation {
  std::vector<std::vector<uint64_t>> acks;
  std::vector<std::vector<uint8_t>> snapshots;   ///< per sketch
  std::vector<std::vector<uint64_t>> check_keys;  ///< per sketch
  std::vector<std::vector<sketch::server::PointValueResponse>> values;
  std::vector<std::vector<uint64_t>> heavy_hitters;  ///< per sketch
  double phi = 0.001;
};

struct CheckReport {
  std::vector<std::string> passed;
  std::vector<std::string> failed;
  bool ok() const { return failed.empty(); }
};

/// Checks the observation against the exact oracle and the methods'
/// guarantees (see README.md, "Checks").
CheckReport Check(const Workload& workload, const Observation& observed);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
