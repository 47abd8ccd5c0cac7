#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/prng.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/stream_summary.h"

namespace perfbench {

namespace sv = sketch::server;

namespace {

// The same literal the service uses for the Count-Min eps = e / width.
constexpr double kEuler = 2.718281828459045;

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

std::vector<StreamUpdate> AsUpdates(const Truth& truth) {
  std::vector<StreamUpdate> out;
  out.reserve(truth.counts.size());
  for (const auto& [key, count] : truth.counts) out.push_back({key, count});
  return out;
}

/// Serialize() of a library sketch with the spec's parameters fed the
/// oracle stream. Every family is linear over integer counters, so feeding
/// each key's exact total once gives the same counters as replaying the
/// acknowledged frames in any order.
std::vector<uint8_t> LibrarySerialize(const SketchSpec& spec,
                                      const Truth& truth) {
  const std::vector<StreamUpdate> updates = AsUpdates(truth);
  switch (spec.type) {
    case SketchType::kCountMin: {
      sketch::CountMinSketch lib(spec.params[0], spec.params[1],
                                 spec.params[2]);
      lib.ApplyBatch(updates);
      return lib.Serialize();
    }
    case SketchType::kCountSketch: {
      sketch::CountSketch lib(spec.params[0], spec.params[1], spec.params[2]);
      lib.ApplyBatch(updates);
      return lib.Serialize();
    }
    case SketchType::kStreamSummary: {
      sketch::StreamSummary lib(SummaryOptions(spec));
      lib.ApplyBatch(updates);
      return lib.Serialize();
    }
    default:
      return {};
  }
}

/// Probability that a median of `depth` independent rows fails when each
/// row fails with probability `p` (more than half the rows fail).
double MedianFailure(uint64_t depth, double p) {
  double total = 0.0;
  const auto d = static_cast<int>(depth);
  for (int k = d / 2 + 1; k <= d; ++k) {
    double binom = 1.0;
    for (int i = 0; i < k; ++i) binom = binom * (d - i) / (i + 1);
    total += binom * std::pow(p, k) * std::pow(1.0 - p, d - k);
  }
  return total;
}

/// The bound the service documents for a sketch in its final state:
/// e/w * sum|delta| for Count-Min, sqrt(3 * F2_hat / w) for Count-Sketch,
/// with F2_hat the median over rows of the row's sum of squared counters.
double DocumentedBound(const SketchSpec& spec, const Truth& truth) {
  const auto width = static_cast<double>(spec.params[0]);
  if (spec.type == SketchType::kCountMin) {
    return kEuler / width * static_cast<double>(truth.abs_deltas);
  }
  sketch::CountSketch lib(spec.params[0], spec.params[1], spec.params[2]);
  lib.ApplyBatch(AsUpdates(truth));
  std::vector<double> rows;
  for (uint64_t j = 0; j < lib.depth(); ++j) {
    double sum = 0.0;
    for (uint64_t b = 0; b < lib.width(); ++b) {
      const auto c = static_cast<double>(lib.CounterAt(j, b));
      sum += c * c;
    }
    rows.push_back(sum);
  }
  std::nth_element(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(rows.size() / 2),
                   rows.end());
  return std::sqrt(3.0 * rows[rows.size() / 2] / width);
}

void CheckPointAnswers(const SketchSpec& spec, const Truth& truth,
                       const std::vector<uint64_t>& keys,
                       const std::vector<sv::PointValueResponse>& values,
                       CheckReport* report) {
  const std::string& n = spec.name;
  if (values.size() != keys.size() || keys.empty()) {
    report->failed.push_back(n + ": final point batch returned " +
                             std::to_string(values.size()) + " values for " +
                             std::to_string(keys.size()) + " keys");
    return;
  }
  const bool count_min = spec.type == SketchType::kCountMin;
  const sv::BoundKind kind = count_min ? sv::BoundKind::kL1 : sv::BoundKind::kL2;
  const double bound = DocumentedBound(spec, truth);
  std::size_t covered = 0;
  std::size_t under = 0;
  std::size_t bound_mismatch = 0;
  std::size_t wrong_kind = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const sv::PointValueResponse& v = values[i];
    const int64_t truth_i = truth.Of(keys[i]);
    if (v.bound_kind != kind) ++wrong_kind;
    if (v.error_bound != bound) ++bound_mismatch;
    if (count_min && v.estimate < truth_i) ++under;
    const double err = std::fabs(static_cast<double>(v.estimate - truth_i));
    if (err <= v.error_bound) ++covered;
  }
  const double n_keys = static_cast<double>(keys.size());
  if (wrong_kind > 0) {
    report->failed.push_back(n + ": " + std::to_string(wrong_kind) +
                             " final answers carry the wrong bound kind");
  }
  (bound_mismatch == 0 ? report->passed : report->failed)
      .push_back(n + Fmt(count_min ? ": reported bound equals e/w*sum|delta| = %.6g on "
                                     "%.0f of %.0f answers"
                                   : ": reported bound equals sqrt(3*F2_hat/w) = %.6g on "
                                     "%.0f of %.0f answers",
                         bound, n_keys - static_cast<double>(bound_mismatch), n_keys));
  if (count_min) {
    (under == 0 ? report->passed : report->failed)
        .push_back(n + Fmt(": estimate >= truth on %.0f of %.0f keys",
                           n_keys - static_cast<double>(under), n_keys));
  }
  // Count-Min: each row overestimates by more than eps*||x||_1 with
  // probability <= 1/e (Markov), so the min of d rows fails w.p. e^-d.
  // Count-Sketch: each row misses sqrt(3*F2/w) w.p. <= 1/3 (Chebyshev);
  // the median of d rows fails only if more than half of them do.
  const double delta = count_min ? std::exp(-static_cast<double>(spec.params[1]))
                                 : MedianFailure(spec.params[1], 1.0 / 3.0);
  const double share = static_cast<double>(covered) / n_keys;
  (share >= 1.0 - delta ? report->passed : report->failed)
      .push_back(n + Fmt(": %.4f of keys within the reported bound "
                         "(method promises >= %.4f)",
                         share, 1.0 - delta));
}

}  // namespace

int64_t Truth::Of(uint64_t key) const {
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), key,
      [](const std::pair<uint64_t, int64_t>& e, uint64_t k) {
        return e.first < k;
      });
  return it != counts.end() && it->first == key ? it->second : 0;
}

std::vector<Truth> ComputeTruth(
    const Workload& workload,
    const std::vector<std::vector<uint64_t>>& acks) {
  std::vector<Truth> out(workload.sketches.size());
  for (std::size_t s = 0; s < workload.sketches.size(); ++s) {
    std::vector<std::pair<uint64_t, int64_t>> all;
    Truth& t = out[s];
    auto add = [&](const StreamUpdate& u, uint64_t times) {
      const int64_t d = u.delta * static_cast<int64_t>(times);
      all.emplace_back(u.item, d);
      t.mass += d;
      t.abs_deltas += static_cast<uint64_t>(d < 0 ? -d : d);
    };
    for (const StreamUpdate& u : workload.sketches[s].base) add(u, 1);
    for (std::size_t c = 0; c < workload.connections.size(); ++c) {
      const Connection& conn = workload.connections[c];
      for (std::size_t i = 0; i < conn.cycle.size(); ++i) {
        const Request& r = conn.cycle[i];
        if (r.op != Op::kIngest || static_cast<std::size_t>(r.sketch) != s ||
            acks[c][i] == 0) {
          continue;
        }
        for (const StreamUpdate& u : *r.updates) add(u, acks[c][i]);
      }
    }
    std::sort(all.begin(), all.end());
    for (const auto& [key, d] : all) {
      if (!t.counts.empty() && t.counts.back().first == key) {
        t.counts.back().second += d;
      } else {
        t.counts.emplace_back(key, d);
      }
    }
    std::erase_if(t.counts, [](const auto& e) { return e.second == 0; });
  }
  return out;
}

std::vector<uint64_t> ChooseCheckKeys(const Truth& truth, uint64_t seed,
                                      uint64_t key_mask) {
  std::vector<std::size_t> order(truth.counts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t top = std::min<std::size_t>(1024, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return truth.counts[a].second > truth.counts[b].second;
                    });
  std::vector<uint64_t> keys;
  for (std::size_t i = 0; i < top; ++i) keys.push_back(truth.counts[order[i]].first);
  sketch::SplitMix64 rng(seed ^ 0xc4ecULL);
  for (int i = 0; i < 6144 && order.size() > top; ++i) {
    const std::size_t pick = top + rng.Next() % (order.size() - top);
    keys.push_back(truth.counts[order[pick]].first);
  }
  for (int absent = 0; absent < 1024;) {
    const uint64_t k = rng.Next() & key_mask;
    if (truth.Of(k) == 0) {
      keys.push_back(k);
      ++absent;
    }
  }
  return keys;
}

CheckReport Check(const Workload& workload, const Observation& observed) {
  CheckReport report;
  const std::vector<Truth> truth = ComputeTruth(workload, observed.acks);
  for (std::size_t s = 0; s < workload.sketches.size(); ++s) {
    const SketchSpec& spec = workload.sketches[s];
    const Truth& t = truth[s];
    const std::vector<uint8_t>& served = observed.snapshots[s];
    const std::vector<uint8_t> expected = LibrarySerialize(spec, t);
    if (served == expected) {
      report.passed.push_back(spec.name + ": snapshot (" +
                              std::to_string(served.size()) +
                              " bytes) equals library Serialize of the "
                              "oracle stream");
    } else {
      std::size_t at = 0;
      while (at < served.size() && at < expected.size() &&
             served[at] == expected[at]) {
        ++at;
      }
      report.failed.push_back(spec.name + ": snapshot differs from library "
                              "Serialize of the oracle stream at byte " +
                              std::to_string(at));
    }
    if (spec.type == SketchType::kCountMin && served.size() == expected.size()) {
      // Every update adds its delta to exactly one counter per row.
      const sketch::CountMinSketch cm = sketch::CountMinSketch::Deserialize(served);
      uint64_t bad_rows = 0;
      for (uint64_t r = 0; r < cm.depth(); ++r) {
        int64_t sum = 0;
        for (uint64_t b = 0; b < cm.width(); ++b) sum += cm.CounterAt(r, b);
        if (sum != t.mass) ++bad_rows;
      }
      (bad_rows == 0 ? report.passed : report.failed)
          .push_back(spec.name + Fmt(": %.0f of %.0f rows sum to the exact "
                                     "mass %.0f",
                                     static_cast<double>(cm.depth() - bad_rows),
                                     static_cast<double>(cm.depth()),
                                     static_cast<double>(t.mass)));
    }
    if (!observed.check_keys[s].empty()) {
      CheckPointAnswers(spec, t, observed.check_keys[s], observed.values[s],
                        &report);
    }
    if (spec.type == SketchType::kStreamSummary) {
      const bool strict = std::all_of(t.counts.begin(), t.counts.end(),
                                      [](const auto& e) { return e.second > 0; });
      if (!strict) {
        report.failed.push_back(spec.name + ": oracle stream has a negative "
                                "frequency (not strict turnstile)");
      }
      // ||x||_1 = sum of frequencies in a strict-turnstile stream.
      const double threshold = observed.phi * static_cast<double>(t.mass);
      const std::vector<uint64_t>& got = observed.heavy_hitters[s];
      std::size_t heavy = 0;
      std::size_t missing = 0;
      for (const auto& [key, count] : t.counts) {
        if (static_cast<double>(count) < threshold) continue;
        ++heavy;
        if (!std::binary_search(got.begin(), got.end(), key)) ++missing;
      }
      (missing == 0 && heavy > 0 ? report.passed : report.failed)
          .push_back(spec.name +
                     Fmt(": %.0f of %.0f items with frequency >= phi*||x||_1 "
                         "reported as heavy hitters (%.0f reported)",
                         static_cast<double>(heavy - missing),
                         static_cast<double>(heavy),
                         static_cast<double>(got.size())));
    }
  }
  return report;
}

}  // namespace perfbench
