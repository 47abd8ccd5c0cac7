// perfbench: the served-sketch benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   perfbench --selftest
//
// Starts sketch_serverd (default flags, 127.0.0.1 TCP), drives one
// workload closed-loop from one thread per connection, checks every
// answer against an exact oracle, and prints the metrics; the last line
// of standard output is one JSON object. See README.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "daemon.h"
#include "ladder.h"
#include "load.h"
#include "oracle.h"
#include "server/client.h"
#include "server/transport.h"
#include "sketch/count_min.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace sv = sketch::server;
using sketch::MonotonicNowNs;

// Set-up is repeated and the first quartile of its times reported: on a
// 4-vCPU VM, 10-50 % of set-ups (a share that changes from run to run) took
// 3-5 ms longer than the rest, so the median jumped between the two groups.
constexpr int kSetupRepeats = 25;
// Pause before each set-up, so a launch does not overlap the exit of the
// daemon set up before it (back to back, one set-up in three took two to
// ten times as long).
constexpr auto kSetupPause = std::chrono::milliseconds(30);
constexpr double kHeavyHitterPhi = 0.001;
// Untimed load before the timed phase: lets caches, socket buffers and the
// host's CPU state settle. Its acknowledged updates still feed the oracle.
constexpr double kWarmupSeconds = 1.0;
// The traced run's phase with the first connection alone.
constexpr double kSoloSeconds = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

/// A daemon with the workload's sketches in place and one open stream per
/// connection.
struct Session {
  Daemon daemon;
  std::unique_ptr<sv::SketchClient> control;
  std::vector<std::unique_ptr<sv::ByteStream>> streams;
};

/// Launches the daemon, creates or restores every sketch and opens every
/// connection (each answers a Ping before set-up counts as done).
bool SetUp(const Workload& w, Session* s, double* seconds) {
  const uint64_t start = MonotonicNowNs();
  if (!s->daemon.Start(PERFBENCH_DAEMON_PATH)) return false;
  auto stream = sv::ConnectTcp("127.0.0.1", s->daemon.port());
  if (stream == nullptr) return false;
  s->control = std::make_unique<sv::SketchClient>(std::move(stream));
  for (const SketchSpec& spec : w.sketches) {
    const bool ok = spec.restore_blob.empty()
                        ? s->control->CreateSketch(spec.name, spec.type, spec.params)
                        : s->control->Restore(spec.name, spec.type, spec.restore_blob);
    if (!ok) {
      std::fprintf(stderr, "perfbench: set-up of %s failed: %s\n",
                   spec.name.c_str(), s->control->last_error().message.c_str());
      return false;
    }
  }
  const std::vector<uint8_t> ping = sv::EncodePing();
  for (std::size_t c = 0; c < w.connections.size(); ++c) {
    auto conn = sv::ConnectTcp("127.0.0.1", s->daemon.port());
    sv::FrameDecoder decoder;
    sv::Frame pong;
    if (conn == nullptr || !sv::WriteAll(conn.get(), ping) ||
        !ReadFrame(conn.get(), &decoder, &pong) || pong.opcode != sv::Opcode::kPong) {
      std::fprintf(stderr, "perfbench: connection %zu did not open\n", c);
      return false;
    }
    s->streams.push_back(std::move(conn));
  }
  *seconds = static_cast<double>(MonotonicNowNs() - start) * 1e-9;
  return true;
}

/// Closes the workload connections, asks the daemon to shut down and
/// reaps it (killing it if it does not exit in time).
bool TearDown(Session* s) {
  for (auto& stream : s->streams) stream->Close();
  s->streams.clear();
  const bool asked = s->control != nullptr && s->control->Shutdown();
  if (s->control != nullptr) s->control->Close();
  return s->daemon.Reap(10000) && asked;
}

std::vector<std::size_t> SnapshotSizes(const Workload& w) {
  std::vector<std::size_t> out;
  for (const SketchSpec& s : w.sketches) {
    out.push_back(s.restore_blob.empty()
                      ? sketch::CountMinSketch(s.params[0], s.params[1], s.params[2])
                            .Serialize()
                            .size()
                      : s.restore_blob.size());
  }
  return out;
}

/// Reads the daemon's final state: a snapshot of every sketch, one point
/// batch over oracle-chosen keys, and the heavy hitters.
bool Observe(const Workload& w, Session* s, const std::vector<const PhaseResult*>& phases,
             Observation* obs) {
  obs->phi = kHeavyHitterPhi;
  obs->acks.assign(w.connections.size(), {});
  for (std::size_t c = 0; c < w.connections.size(); ++c) {
    obs->acks[c].assign(w.connections[c].cycle.size(), 0);
    for (const PhaseResult* p : phases) {
      if (c >= p->conns.size()) continue;  // a phase of fewer connections
      for (std::size_t i = 0; i < obs->acks[c].size(); ++i) {
        obs->acks[c][i] += p->conns[c].acks[i];
      }
    }
  }
  const std::vector<Truth> truth = ComputeTruth(w, obs->acks);
  const std::size_t n = w.sketches.size();
  obs->snapshots.assign(n, {});
  obs->check_keys.assign(n, {});
  obs->values.assign(n, {});
  obs->heavy_hitters.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    const SketchSpec& spec = w.sketches[i];
    if (!s->control->Snapshot(spec.name, &obs->snapshots[i])) return false;
    if (spec.type == SketchType::kStreamSummary) {
      if (!s->control->HeavyHitters(spec.name, obs->phi, &obs->heavy_hitters[i])) {
        return false;
      }
      std::sort(obs->heavy_hitters[i].begin(), obs->heavy_hitters[i].end());
      continue;
    }
    const uint64_t key_mask =
        spec.type == SketchType::kCountSketch ? (1ULL << 20) - 1 : ~0ULL;
    obs->check_keys[i] = ChooseCheckKeys(truth[i], w.seed, key_mask);
    if (!s->control->PointQueryBatch(spec.name, obs->check_keys[i], &obs->values[i])) {
      return false;
    }
  }
  return true;
}

double Quantile(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

/// Samples beyond the p99 of n samples.
std::size_t BeyondP99(std::size_t n) {
  return n == 0 ? 0 : n - 1 - static_cast<std::size_t>(0.99 * static_cast<double>(n - 1));
}

struct EndToEnd {
  double update_rate = 0, query_rate = 0;
  double ingest_p50 = 0, ingest_p99 = 0, query_p50 = 0, query_p99 = 0;
  double cpu_us_per_req = 0, ctx_per_req = 0;
  std::size_t ingest_samples = 0, query_samples = 0;  ///< in the chosen ticks
  std::size_t ticks = 0, chosen_ticks = 0;
  uint64_t chosen_steal = 0, total_steal = 0;
  double requests = 0;
  std::array<uint64_t, kNumOps> attempted{}, failed{};
};

/// The end-to-end figures are taken from at least this share of the
/// phase's ticks.
constexpr double kChosenShare = 1.0 / 8;
/// Samples of each request kind the chosen ticks must hold, so each p99
/// has at least ten samples beyond it.
constexpr std::size_t kMinTailSamples = 1100;

/// The end-to-end figures of a phase, taken over the ticks the host
/// disturbed least. The hypervisor's steal time (machine-wide, from
/// /proc/stat) moves every figure of this wake-up-heavy load: a few
/// percent of steal in a tick doubles that tick's p99. So the ticks are
/// ranked by steal; every tick with no more steal than the quietest
/// kChosenShare of them is chosen (more if they hold fewer than
/// kMinTailSamples of a request kind); and rates, percentiles and CPU per
/// request are computed over the requests that completed in the chosen
/// ticks. Totals cover the whole phase.
EndToEnd Summarize(const PhaseResult& p) {
  EndToEnd e;
  const std::size_t ticks = p.samples.size() - 1;
  e.ticks = ticks;
  std::vector<std::vector<uint32_t>> ingest(ticks), query(ticks);
  std::vector<double> updates(ticks), queries(ticks);
  auto tick_of = [&](uint32_t done_us) {
    return std::min<std::size_t>(static_cast<uint64_t>(done_us) * 1000 / kTickNs, ticks - 1);
  };
  for (const ConnResult& c : p.conns) {
    for (std::size_t i = 0; i < c.ingest_latency_ns.size(); ++i) {
      const std::size_t t = tick_of(c.ingest_done_us[i]);
      ingest[t].push_back(c.ingest_latency_ns[i]);
      updates[t] += c.ingest_updates[i];
    }
    for (std::size_t i = 0; i < c.query_latency_ns.size(); ++i) {
      const std::size_t t = tick_of(c.query_done_us[i]);
      query[t].push_back(c.query_latency_ns[i]);
      queries[t] += 1;
    }
    e.requests += static_cast<double>(c.requests_done);
    for (int op = 0; op < kNumOps; ++op) {
      e.attempted[op] += c.attempted[op];
      e.failed[op] += c.failed[op];
    }
  }
  std::vector<uint64_t> steal(ticks);
  std::vector<std::size_t> order(ticks);
  std::size_t total_ingest = 0, total_query = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    steal[t] = p.samples[t + 1].host_steal_ticks - p.samples[t].host_steal_ticks;
    e.total_steal += steal[t];
    order[t] = t;
    total_ingest += ingest[t].size();
    total_query += query[t].size();
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return steal[x] < steal[y]; });
  const std::size_t want_ingest = std::min(kMinTailSamples, total_ingest);
  const std::size_t want_query = std::min(kMinTailSamples, total_query);
  // Every tick as quiet as the quietest kChosenShare: in a quiet run all
  // steal-free ticks, in a disturbed one the least disturbed eighth.
  const auto share = static_cast<std::size_t>(std::ceil(kChosenShare * static_cast<double>(ticks)));
  const uint64_t steal_limit = steal[order[std::min(share, ticks) - 1]];
  std::vector<uint32_t> chosen_ingest, chosen_query;
  double chosen_updates = 0, chosen_queries = 0, chosen_ns = 0, chosen_cpu_us = 0;
  for (std::size_t n = 0; n < ticks; ++n) {
    if (steal[order[n]] > steal_limit && chosen_ingest.size() >= want_ingest &&
        chosen_query.size() >= want_query) {
      break;
    }
    const std::size_t t = order[n];
    chosen_ingest.insert(chosen_ingest.end(), ingest[t].begin(), ingest[t].end());
    chosen_query.insert(chosen_query.end(), query[t].begin(), query[t].end());
    chosen_updates += updates[t];
    chosen_queries += queries[t];
    // The last tick runs on to the last reply.
    const uint64_t tick_end = t + 1 < ticks ? p.start_ns + (t + 1) * kTickNs : p.end_ns;
    chosen_ns += static_cast<double>(tick_end - p.start_ns - t * kTickNs);
    chosen_cpu_us += static_cast<double>(p.samples[t + 1].cpu_us - p.samples[t].cpu_us);
    e.chosen_steal += steal[t];
    ++e.chosen_ticks;
  }
  const double secs = chosen_ns * 1e-9;
  e.update_rate = chosen_updates / secs / 1e6;
  e.query_rate = chosen_queries / secs / 1e3;
  e.ingest_samples = chosen_ingest.size();
  e.query_samples = chosen_query.size();
  e.ingest_p50 = Quantile(chosen_ingest, 0.50) / 1e3;
  e.ingest_p99 = Quantile(chosen_ingest, 0.99) / 1e3;
  e.query_p50 = Quantile(chosen_query, 0.50) / 1e3;
  e.query_p99 = Quantile(chosen_query, 0.99) / 1e3;
  e.cpu_us_per_req =
      chosen_cpu_us / std::max(static_cast<double>(e.ingest_samples + e.query_samples), 1.0);
  e.ctx_per_req = static_cast<double>(p.samples.back().ctx_switches -
                                      p.samples.front().ctx_switches) /
                  std::max(e.requests, 1.0);
  return e;
}

/// Daemon CPU per request over the whole phase, in ns.
double PhaseCpuNsPerReq(const PhaseResult& p) {
  double requests = 0;
  for (const ConnResult& c : p.conns) requests += static_cast<double>(c.requests_done);
  return static_cast<double>(p.samples.back().cpu_us - p.samples.front().cpu_us) * 1e3 /
         std::max(requests, 1.0);
}

void PrintEndToEnd(const char* label, const EndToEnd& e) {
  std::printf("%s: over the %zu of %zu ticks of %.2f s with the least host steal\n"
              "  (steal in the chosen ticks %llu, in all ticks %llu, in clock ticks)\n",
              label, e.chosen_ticks, e.ticks, static_cast<double>(kTickNs) * 1e-9,
              static_cast<unsigned long long>(e.chosen_steal),
              static_cast<unsigned long long>(e.total_steal));
  std::printf("  update_rate           %12.4f Mupd/s\n", e.update_rate);
  std::printf("  query_rate            %12.4f kreq/s\n", e.query_rate);
  std::printf("  ingest_p50_us         %12.2f us\n", e.ingest_p50);
  std::printf("  ingest_p99_us         %12.2f us   (%zu samples, %zu beyond p99)\n",
              e.ingest_p99, e.ingest_samples, BeyondP99(e.ingest_samples));
  std::printf("  query_p50_us          %12.2f us\n", e.query_p50);
  std::printf("  query_p99_us          %12.2f us   (%zu samples, %zu beyond p99)\n",
              e.query_p99, e.query_samples, BeyondP99(e.query_samples));
  std::printf("  server_cpu_us_per_req %12.3f us\n", e.cpu_us_per_req);
  std::printf("  ops:");
  for (int op = 0; op < kNumOps; ++op) {
    if (e.attempted[op] == 0) continue;
    std::printf(" %s attempted=%llu failed=%llu;", OpName(static_cast<Op>(op)),
                static_cast<unsigned long long>(e.attempted[op]),
                static_cast<unsigned long long>(e.failed[op]));
  }
  std::printf("\n");
}

bool PrintChecks(const CheckReport& report, const std::vector<const PhaseResult*>& phases) {
  bool ok = report.ok();
  for (const std::string& line : report.passed) std::printf("  check ok:   %s\n", line.c_str());
  for (const std::string& line : report.failed) std::printf("  check FAIL: %s\n", line.c_str());
  for (const PhaseResult* p : phases) {
    for (const ConnResult& c : p->conns) {
      if (!c.wrong_answer.empty()) {
        std::printf("  check FAIL: wrong answer during the run: %s\n", c.wrong_answer.c_str());
        ok = false;
      }
    }
  }
  if (ok) std::printf("  check ok:   every answer read during the run decoded to its expected shape\n");
  return ok;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<std::string, std::pair<double, const char*>>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), v, metrics[i].second.second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

uint64_t Sum(const std::array<uint64_t, kNumOps>& a) {
  uint64_t s = 0;
  for (uint64_t v : a) s += v;
  return s;
}

int RunEndToEnd(const Args& args, const Workload& w) {
  const std::vector<std::size_t> snapshot_bytes = SnapshotSizes(w);
  // The last of the kSetupRepeats sessions is the one measured.
  auto warmers = std::make_unique<CpuWarmers>();
  std::vector<double> setups;
  std::unique_ptr<Session> session;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (session != nullptr && !TearDown(session.get())) {
      std::fprintf(stderr, "perfbench: daemon did not shut down cleanly\n");
      return 1;
    }
    std::this_thread::sleep_for(kSetupPause);
    session = std::make_unique<Session>();
    double secs = 0;
    if (!SetUp(w, session.get(), &secs)) return 1;
    setups.push_back(secs);
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[setups.size() / 4];

  const PhaseResult warmup = RunPhase(w, session->streams, session->daemon,
                                     kWarmupSeconds, ClientMode::kPreEncoded, snapshot_bytes);
  const PhaseResult phase =
      RunPhase(w, session->streams, session->daemon, args.seconds,
               ClientMode::kPreEncoded, snapshot_bytes);
  warmers.reset();
  const double rss_mib = session->daemon.PeakRssMiB();
  Observation obs;
  const bool observed = Observe(w, session.get(), {&warmup, &phase}, &obs);
  const bool clean_exit = TearDown(session.get());
  const EndToEnd e = Summarize(phase);

  std::printf("workload %s seed %llu: %zu connections, %.3f s timed, closed loop\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              w.connections.size(), phase.Seconds());
  PrintEndToEnd("end-to-end (untraced)", e);
  std::printf("  server_rss_mb         %12.2f MiB\n", rss_mib);
  std::printf("  setup_s               %12.6f s   (first quartile of %d set-ups; median %.6f s)\n",
              setup_s, kSetupRepeats, setups[setups.size() / 2]);
  bool correct = observed && clean_exit;
  if (!observed) std::printf("  check FAIL: could not read the daemon's final state\n");
  if (!clean_exit) std::printf("  check FAIL: daemon did not shut down cleanly\n");
  if (observed) correct = PrintChecks(Check(w, obs), {&warmup, &phase}) && correct;

  // Operations of the warm-up count too: a failure there is a failure.
  const EndToEnd e_warm = Summarize(warmup);
  PrintResult(correct, Sum(e.attempted) + Sum(e_warm.attempted),
              Sum(e.failed) + Sum(e_warm.failed),
              {{"update_rate", {e.update_rate, "Mupd/s"}},
               {"query_rate", {e.query_rate, "kreq/s"}},
               {"ingest_p50_us", {e.ingest_p50, "us"}},
               {"ingest_p99_us", {e.ingest_p99, "us"}},
               {"query_p50_us", {e.query_p50, "us"}},
               {"query_p99_us", {e.query_p99, "us"}},
               {"server_cpu_us_per_req", {e.cpu_us_per_req, "us"}},
               {"server_rss_mb", {rss_mib, "MiB"}},
               {"setup_s", {setup_s, "s"}}});
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, const Workload& w) {
  const std::vector<std::size_t> snapshot_bytes = SnapshotSizes(w);
  auto warmers = std::make_unique<CpuWarmers>();
  Session session;
  double setup_s = 0;
  if (!SetUp(w, &session, &setup_s)) return 1;
  // Half the time untraced, half traced, on the same daemon. Both halves
  // encode on the clock, so the ratio of the two is the span recording's
  // overhead alone. Then the first connection alone, whose requests queue
  // behind no other connection's.
  const PhaseResult warmup = RunPhase(w, session.streams, session.daemon, kWarmupSeconds,
                                      ClientMode::kPreEncoded, snapshot_bytes);
  const PhaseResult plain = RunPhase(w, session.streams, session.daemon, args.seconds / 2,
                                     ClientMode::kEncode, snapshot_bytes);
  const PhaseResult traced = RunPhase(w, session.streams, session.daemon, args.seconds / 2,
                                      ClientMode::kTrace, snapshot_bytes);
  const PhaseResult solo = RunPhase(w, session.streams, session.daemon, kSoloSeconds,
                                    ClientMode::kEncode, snapshot_bytes, 1);
  const std::vector<const PhaseResult*> phases = {&warmup, &plain, &traced, &solo};
  Observation obs;
  const bool observed = Observe(w, &session, phases, &obs);
  const bool clean_exit = TearDown(&session);
  // The in-process replay is compute-bound and waits for no wake-ups, so
  // the spinners could only slow it.
  warmers.reset();
  const EndToEnd e_plain = Summarize(plain);
  const EndToEnd e_traced = Summarize(traced);
  const EndToEnd e_solo = Summarize(solo);

  std::printf("workload %s seed %llu (traced run): %zu connections\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed), w.connections.size());
  PrintEndToEnd("untraced half", e_plain);
  PrintEndToEnd("traced half", e_traced);
  PrintEndToEnd("first connection alone", e_solo);
  bool correct = observed && clean_exit;
  if (observed) correct = PrintChecks(Check(w, obs), phases) && correct;

  // The replay weights each window by how often a phase served it: the
  // untraced half, whose daemon CPU (over the whole half) the front door
  // is taken from, and the first connection alone.
  auto live_windows = [&](const PhaseResult& p) {
    LiveWindows live(w.connections.size());
    for (std::size_t c = 0; c < w.connections.size(); ++c) {
      for (const Window& win : w.connections[c].windows) {
        live[c].push_back(c < p.conns.size() ? p.conns[c].acks[win.first] : 0);
      }
    }
    return live;
  };
  SpanRecorder ladder_spans;
  const LadderResult ladder = RunLadder(w, live_windows(plain), &ladder_spans);
  std::map<std::string, double> m = ladder.metrics;

  double write_ns = 0, wait_ns = 0, reqs = 0;
  for (const ConnResult& c : traced.conns) {
    write_ns += static_cast<double>(c.write_ns);
    wait_ns += static_cast<double>(c.wait_ns);
    reqs += static_cast<double>(c.requests_done);
  }
  m["frontdoor.cpu_ns_per_req"] = PhaseCpuNsPerReq(plain) - m["service.handle_ns_per_req"];
  m["frontdoor.ctx_switches_per_req"] = e_plain.ctx_per_req;
  m["client.write_ns_per_req"] = write_ns / reqs;
  m["client.wait_us_per_req"] = wait_ns / reqs / 1e3;
  // What the measured layers account for of the time one connection alone
  // (queued behind no other) spends per request: its own encode, write and
  // decode, plus the daemon's framing and HandleFrames of its windows
  // replayed in-process alone, over the time from encoding a window to
  // decoding its last reply. The rest is the front door and the kernel
  // between the two processes, which no in-process layer measures.
  const ConnResult& first = solo.conns.front();
  const double solo_reqs = static_cast<double>(first.requests_done);
  const LiveWindows solo_live = live_windows(solo);
  const double layers_ns =
      static_cast<double>(first.encode_ns + first.write_ns + first.decode_ns) / solo_reqs +
      LiveNsPerReq(w, solo_live, ladder.first_connection_ns);
  m["ladder.explained_fraction"] = layers_ns / (static_cast<double>(first.window_ns) / solo_reqs);
  m["tracing.update_rate_ratio"] = e_traced.update_rate / e_plain.update_rate;
  m["tracing.query_p50_ratio"] = e_traced.query_p50 / e_plain.query_p50;

  std::vector<const SpanRecorder*> recorders;
  std::vector<std::string> names;
  for (std::size_t c = 0; c < traced.conns.size(); ++c) {
    recorders.push_back(&traced.conns[c].spans);
    names.push_back("conn" + std::to_string(c) + " " + w.connections[c].role);
  }
  recorders.push_back(&ladder_spans);
  names.push_back("in-process replay");
  const std::string trace_path = args.trace_dir + "/perfbench_trace_" + w.name + "_" +
                                 std::to_string(w.seed) + ".json";
  const bool wrote = WriteTrace(trace_path, recorders, names);
  uint64_t dropped = 0;
  for (const SpanRecorder* r : recorders) dropped += r->dropped();
  std::printf("trace: %s %s (%llu spans past the recorders' capacity not kept)\n",
              trace_path.c_str(), wrote ? "written" : "NOT written",
              static_cast<unsigned long long>(dropped));
  std::printf("self time per span (client spans of the traced half, replay passes):\n");
  for (const auto& [name, t] : SelfTimes(recorders)) {
    std::printf("  %-32s count %9llu  total %10.3f ms  self %10.3f ms\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6, static_cast<double>(t.self_ns) / 1e6);
  }
  std::printf("tracing overhead: traced/untraced update_rate %.4f, query_p50 %.4f\n",
              m["tracing.update_rate_ratio"], m["tracing.query_p50_ratio"]);
  std::printf("ladder.explained_fraction %.4f\n", m["ladder.explained_fraction"]);

  static const std::map<std::string, const char*> kUnits = {
      {"kernels.bucket_ns_per_key", "ns"}, {"kernels.sign_ns_per_key", "ns"},
      {"sketch.cm_apply_ns_per_update", "ns"}, {"sketch.cm_estimate_ns_per_key", "ns"},
      {"sketch.cs_apply_ns_per_update", "ns"}, {"sketch.summary_apply_ns_per_update", "ns"},
      {"sketch.cs_estimate_ns_per_key", "ns"}, {"sketch.summary_heavy_hitters_us", "us"},
      {"sketch.cs_serialize_us", "us"}, {"sketch.deserialize_ms", "ms"},
      {"protocol.encode_ingest_ns_per_update", "ns"},
      {"protocol.decode_ingest_ns_per_update", "ns"}, {"protocol.frame_ns_per_frame", "ns"},
      {"protocol.value_batch_ns_per_key", "ns"}, {"service.handle_ns_per_req", "ns"},
      {"service.self_ns_per_req", "ns"}, {"service.contention_ns_per_req", "ns"},
      {"service.restore_ms", "ms"}, {"frontdoor.cpu_ns_per_req", "ns"},
      {"frontdoor.ctx_switches_per_req", "count"}, {"client.write_ns_per_req", "ns"},
      {"client.wait_us_per_req", "us"}, {"ladder.explained_fraction", "ratio"},
      {"tracing.update_rate_ratio", "ratio"}, {"tracing.query_p50_ratio", "ratio"}};
  std::vector<std::pair<std::string, std::pair<double, const char*>>> out;
  for (const auto& [name, unit] : kUnits) {
    std::printf("  %-40s %14.4f %s\n", name.c_str(), m[name], unit);
    out.push_back({name, {m[name], unit}});
  }
  std::array<uint64_t, kNumOps> attempted{}, failed{};
  const EndToEnd e_warm = Summarize(warmup);
  for (const EndToEnd* e : {&e_warm, &e_plain, &e_traced, &e_solo}) {
    for (int op = 0; op < kNumOps; ++op) {
      attempted[op] += e->attempted[op];
      failed[op] += e->failed[op];
    }
  }
  PrintResult(correct, Sum(attempted), Sum(failed), out);
  return correct ? 0 : 1;
}

/// Checker self-test: a short real run of each checked workload must pass
/// the checks, and each seeded fault must make them fail; equal seeds must
/// give equal frames.
int RunSelfTest() {
  int problems = 0;
  auto expect = [&](bool cond, const std::string& what) {
    std::printf("  %s %s\n", cond ? "ok  " : "FAIL", what.c_str());
    if (!cond) ++problems;
  };
  for (const char* name : kWorkloadNames) {
    Workload a, b, c;
    MakeWorkload(name, 7, &a);
    MakeWorkload(name, 7, &b);
    MakeWorkload(name, 8, &c);
    expect(WorkloadBytes(a) == WorkloadBytes(b),
           std::string(name) + ": seed 7 twice gives identical frames");
    expect(WorkloadBytes(a) != WorkloadBytes(c),
           std::string(name) + ": seeds 7 and 8 give different frames");
  }
  for (const char* name : kWorkloadNames) {
    Workload w;
    MakeWorkload(name, 11, &w);
    Session session;
    double setup_s = 0;
    if (!SetUp(w, &session, &setup_s)) return 1;
    const PhaseResult phase =
        RunPhase(w, session.streams, session.daemon, 1.0, ClientMode::kPreEncoded,
                 SnapshotSizes(w));
    Observation obs;
    const bool observed = Observe(w, &session, {&phase}, &obs);
    TearDown(&session);
    expect(observed, std::string(name) + ": final state read back");
    if (!observed) continue;
    const CheckReport clean = Check(w, obs);
    for (const std::string& f : clean.failed) std::printf("       %s\n", f.c_str());
    expect(clean.ok(), std::string(name) + ": unperturbed run passes every check");

    Observation dropped = obs;
    bool done = false;
    for (std::size_t conn = 0; conn < w.connections.size() && !done; ++conn) {
      for (std::size_t i = 0; i < w.connections[conn].cycle.size() && !done; ++i) {
        if (w.connections[conn].cycle[i].op == Op::kIngest && dropped.acks[conn][i] > 0) {
          --dropped.acks[conn][i];
          done = true;
        }
      }
    }
    expect(done && !Check(w, dropped).ok(),
           std::string(name) + ": dropping one acknowledged frame from the oracle fails");

    Observation flipped = obs;
    std::vector<uint8_t>& snap = flipped.snapshots[0];
    snap[snap.size() - 8] ^= 1;  // low byte of the last counter
    expect(!Check(w, flipped).ok(),
           std::string(name) + ": flipping one counter in a served snapshot fails");

    Observation under = obs;
    for (auto& values : under.values) {
      for (sv::PointValueResponse& v : values) v.error_bound *= 0.01;
    }
    expect(!Check(w, under).ok(),
           std::string(name) + ": under-reporting the error bound fails");
  }
  std::printf("selftest: %s\n", problems == 0 ? "PASS" : "FAIL");
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR] | --selftest\n");
    return 2;
  }
  if (args.selftest) return perfbench::RunSelfTest();
  perfbench::Workload w;
  if (!perfbench::MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace != 0 ? perfbench::RunTraced(args, w) : perfbench::RunEndToEnd(args, w);
}
