#include "workload.h"

#include "common/prng.h"
#include "common/zipf.h"
#include "sketch/count_sketch.h"
#include "sketch/stream_summary.h"

namespace perfbench {

namespace sv = sketch::server;

namespace {

constexpr uint64_t kZipfRanks = 1ULL << 20;
constexpr double kZipfAlpha = 1.1;
constexpr int kSummaryLogUniverse = 20;

/// Draws Zipf(1.1) ranks and maps them to keys. Heavy ranks are scattered
/// so the hottest keys are not 0, 1, 2, ...: over the full 64-bit range
/// through a mixer, or inside [0, 2^20) through an odd-multiplier
/// bijection when the target is a StreamSummary universe.
class KeySource {
 public:
  KeySource(uint64_t seed, bool small_universe)
      : zipf_(kZipfRanks, kZipfAlpha, sketch::SplitMix64Once(seed ^ 0x51ULL)),
        salt_(sketch::SplitMix64Once(seed ^ 0x5a17ULL)),
        small_universe_(small_universe) {}

  uint64_t Next() { return KeyOfRank(zipf_.Next()); }

  uint64_t KeyOfRank(uint64_t rank) const {
    if (small_universe_) {
      return (rank * 0x9E3779B1ULL + salt_) & (kZipfRanks - 1);
    }
    return sketch::SplitMix64Once(rank ^ salt_);
  }

 private:
  sketch::ZipfGenerator zipf_;
  uint64_t salt_;
  bool small_universe_;
};

Request MakeIngest(int sketch, std::vector<StreamUpdate> updates) {
  Request r;
  r.op = Op::kIngest;
  r.sketch = sketch;
  r.updates =
      std::make_shared<const std::vector<StreamUpdate>>(std::move(updates));
  return r;
}

Request MakePointBatch(int sketch, std::vector<uint64_t> keys) {
  Request r;
  r.op = Op::kPointBatch;
  r.sketch = sketch;
  r.keys = std::move(keys);
  return r;
}

std::vector<StreamUpdate> UnitUpdates(KeySource* keys, std::size_t n) {
  std::vector<StreamUpdate> out(n);
  for (StreamUpdate& u : out) u = {keys->Next(), 1};
  return out;
}

/// Query keys: three quarters drawn from the stream's own distribution
/// (mostly present), one quarter uniform (mostly absent).
std::vector<uint64_t> QueryKeys(KeySource* keys, sketch::SplitMix64* rng,
                                std::size_t n, uint64_t key_mask) {
  std::vector<uint64_t> out(n);
  for (uint64_t& k : out) {
    k = (rng->Next() & 3) != 0 ? keys->Next() : (rng->Next() & key_mask);
  }
  return out;
}

/// A strict-turnstile frame: unit-to-small inserts, and about one update
/// in five deletes part of an insert made earlier in the same frame, so no
/// frequency is ever negative however many times the frame is applied.
std::vector<StreamUpdate> TurnstileFrame(KeySource* keys,
                                         sketch::SplitMix64* rng,
                                         std::size_t n) {
  std::vector<StreamUpdate> out;
  out.reserve(n);
  std::vector<std::size_t> inserts;
  std::vector<int64_t> deletable;
  while (out.size() < n) {
    if (!inserts.empty() && rng->Next() % 5 == 0) {
      const std::size_t pick = rng->Next() % inserts.size();
      if (deletable[pick] > 0) {
        const int64_t d =
            1 + static_cast<int64_t>(rng->Next() %
                                     static_cast<uint64_t>(deletable[pick]));
        deletable[pick] -= d;
        out.push_back({out[inserts[pick]].item, -d});
        continue;
      }
    }
    const int64_t delta = 1 + static_cast<int64_t>(rng->Next() % 3);
    inserts.push_back(out.size());
    deletable.push_back(delta);
    out.push_back({keys->Next(), delta});
  }
  return out;
}

/// Groups a connection's cycle into windows of `per_window` requests and
/// encodes them.
void BuildWindows(const Workload& w, Connection* c, std::size_t per_window) {
  for (Request& r : c->cycle) r.frame = EncodeRequest(w, r);
  for (std::size_t first = 0; first < c->cycle.size(); first += per_window) {
    Window win;
    win.first = first;
    win.count = std::min(per_window, c->cycle.size() - first);
    for (std::size_t i = first; i < first + win.count; ++i) {
      const std::vector<uint8_t>& f = c->cycle[i].frame;
      win.bytes.insert(win.bytes.end(), f.begin(), f.end());
    }
    c->windows.push_back(std::move(win));
  }
}

void MakeBulkIngest(Workload* w) {
  const uint64_t seed = w->seed;
  w->sketches.push_back({"cm", SketchType::kCountMin,
                         {131072, 4, sketch::SplitMix64Once(seed + 1), 0, 0},
                         {}, {}});
  KeySource keys(seed, false);
  sketch::SplitMix64 rng(seed ^ 0xb01cULL);
  for (int writer = 0; writer < 3; ++writer) {
    Connection c;
    c.role = "writer";
    for (int f = 0; f < 48; ++f) {
      c.cycle.push_back(MakeIngest(0, UnitUpdates(&keys, 4096)));
    }
    w->connections.push_back(std::move(c));
  }
  Connection reader;
  reader.role = "reader";
  for (int q = 0; q < 64; ++q) {
    reader.cycle.push_back(
        MakePointBatch(0, QueryKeys(&keys, &rng, 256, ~0ULL)));
  }
  w->connections.push_back(std::move(reader));
  for (Connection& c : w->connections) BuildWindows(*w, &c, 1);
}

void MakeSmallFrames(Workload* w) {
  const uint64_t seed = w->seed;
  w->sketches.push_back({"cm", SketchType::kCountMin,
                         {4096, 4, sketch::SplitMix64Once(seed + 2), 0, 0},
                         {}, {}});
  KeySource keys(seed, false);
  sketch::SplitMix64 rng(seed ^ 0x5f7aULL);
  for (int conn = 0; conn < 4; ++conn) {
    Connection c;
    c.role = "mixed";
    for (int f = 0; f < 32 * 32; ++f) {
      if ((rng.Next() & 1) == 0) {
        c.cycle.push_back(MakeIngest(0, UnitUpdates(&keys, 64)));
      } else {
        c.cycle.push_back(MakePointBatch(0, QueryKeys(&keys, &rng, 16, ~0ULL)));
      }
    }
    w->connections.push_back(std::move(c));
  }
  for (Connection& c : w->connections) BuildWindows(*w, &c, 32);
}

void MakeReadMix(Workload* w) {
  const uint64_t seed = w->seed;
  KeySource keys(seed, true);
  sketch::SplitMix64 rng(seed ^ 0x4eadULL);
  SketchSpec cs{"cs", SketchType::kCountSketch,
                {16384, 5, sketch::SplitMix64Once(seed + 3), 0, 0}, {}, {}};
  SketchSpec ss{"ss", SketchType::kStreamSummary,
                {kSummaryLogUniverse, 2048, 4, 8192,
                 sketch::SplitMix64Once(seed + 4)},
                {}, {}};
  std::vector<StreamUpdate> base(1u << 18);
  for (StreamUpdate& u : base) {
    u = {keys.Next(), 1 + static_cast<int64_t>(rng.Next() % 3)};
  }
  {
    sketch::CountSketch lib(cs.params[0], cs.params[1], cs.params[2]);
    lib.ApplyBatch(base);
    cs.restore_blob = lib.Serialize();
  }
  {
    sketch::StreamSummary lib(SummaryOptions(ss));
    lib.ApplyBatch(base);
    ss.restore_blob = lib.Serialize();
  }
  cs.base = base;
  ss.base = std::move(base);
  w->sketches.push_back(std::move(cs));
  w->sketches.push_back(std::move(ss));

  Connection writer;
  writer.role = "writer";
  for (int f = 0; f < 64; ++f) {
    Request r = MakeIngest(0, TurnstileFrame(&keys, &rng, 1024));
    Request to_summary = r;
    to_summary.sketch = 1;
    writer.cycle.push_back(std::move(r));
    writer.cycle.push_back(std::move(to_summary));
  }
  w->connections.push_back(std::move(writer));
  for (int reader = 0; reader < 3; ++reader) {
    Connection c;
    c.role = "reader";
    for (int i = 0; i < 64; ++i) {
      if (i % 2 == 0) {
        c.cycle.push_back(
            MakePointBatch(0, QueryKeys(&keys, &rng, 256, kZipfRanks - 1)));
      } else if (i % 16 != 15) {
        Request hh;
        hh.op = Op::kHeavyHitters;
        hh.sketch = 1;
        hh.phi = 0.001;
        c.cycle.push_back(std::move(hh));
      } else {
        Request snap;
        snap.op = Op::kSnapshot;
        snap.sketch = 0;
        c.cycle.push_back(std::move(snap));
      }
    }
    w->connections.push_back(std::move(c));
  }
  for (Connection& c : w->connections) BuildWindows(*w, &c, 1);
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kIngest:
      return "ingest";
    case Op::kPointBatch:
      return "point_query_batch";
    case Op::kHeavyHitters:
      return "heavy_hitters";
    case Op::kSnapshot:
      return "snapshot";
  }
  return "?";
}

sketch::StreamSummary::Options SummaryOptions(const SketchSpec& spec) {
  sketch::StreamSummary::Options o;
  o.log_universe = static_cast<int>(spec.params[0]);
  o.width = spec.params[1];
  o.depth = spec.params[2];
  o.verify_width = spec.params[3];
  o.seed = spec.params[4];
  return o;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  out->seed = seed;
  if (name == "bulk_ingest") {
    MakeBulkIngest(out);
  } else if (name == "small_frames") {
    MakeSmallFrames(out);
  } else if (name == "read_mix") {
    MakeReadMix(out);
  } else {
    return false;
  }
  return true;
}

std::vector<uint8_t> EncodeRequest(const Workload& workload,
                                   const Request& request) {
  const std::string& name = workload.sketches[request.sketch].name;
  switch (request.op) {
    case Op::kIngest:
      return sv::EncodeIngestSpan(name, *request.updates);
    case Op::kPointBatch:
      return sv::EncodePointQueryBatch({name, request.keys});
    case Op::kHeavyHitters:
      return sv::EncodeHeavyHitters({name, request.phi});
    case Op::kSnapshot:
      return sv::EncodeSnapshot({name});
  }
  return {};
}

std::vector<uint8_t> WorkloadBytes(const Workload& workload) {
  std::vector<uint8_t> out;
  for (const SketchSpec& s : workload.sketches) {
    out.insert(out.end(), s.restore_blob.begin(), s.restore_blob.end());
  }
  for (const Connection& c : workload.connections) {
    for (const Window& win : c.windows) {
      out.insert(out.end(), win.bytes.begin(), win.bytes.end());
    }
  }
  return out;
}

}  // namespace perfbench
