// Repository benchmark driver; README.md in this directory explains the
// workloads, metrics and noise findings.
//
// Runs one workload for a fixed wall-clock budget after set-up and
// warm-up, checks every output, and prints one JSON object on stdout: the
// time of every operation (single-threaded workloads) or per-window
// latency histograms (service), and counts. run.py turns that into the
// benchmark's metrics. With --trace PATH a second, traced phase follows
// the untraced one: its spans (the driver's own around every public call,
// plus those the library already emits) go to PATH.
//
//   perfbench_driver --workload insitu_nyx|iso_warpx|service_warpx
//                    --seed N --seconds S [--trace PATH]
//   perfbench_driver --selftest

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "compress/chunked.hpp"
#include "compress/compressor.hpp"
#include "core/datasets.hpp"
#include "metrics/quality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/query_service.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "vis/amr_iso.hpp"

namespace {

using namespace amrvis;
using Clock = std::chrono::steady_clock;

// The datasets are the canonical quarter-scale Table 1 hierarchies (the
// generators' default seed). The Nyx ratio alone ranges from 25.5 to 40.8
// over generator seeds 1-8, so seeded datasets would turn a comparison of
// runs into a comparison of datasets. --seed drives what is random in the
// workloads themselves: the viewers' request walks and which iso path
// runs first.
constexpr double kRelEb = 1e-3;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// The WarpX artifact's codec and its tile edge in cells: a decoded tile
// is 16^3 doubles = 32 KiB.
constexpr const char* kWarpxCodec = "chunked-sz-lr@16x16x16";
constexpr std::int64_t kTileEdge = 16;
// About 0.3 of the 3.54 MB decoded quarter-scale WarpX hierarchy: the
// ratio of the service's default 64 MiB budget to the ~226 MB decoded
// paper-scale hierarchy, so the viewers see both hits and misses. It
// holds 32 full tiles.
constexpr std::size_t kServiceCacheBytes = std::size_t{1} << 20;
constexpr int kServiceClients = 2;
constexpr int kWarmupIterations = 2;
constexpr double kServiceWarmupSeconds = 1.0;
constexpr std::size_t kMaxReportedErrors = 5;
// The service's latencies are kept per window of this length, so the
// quietest stretch of a run can be told from the rest.
constexpr double kWindowSeconds = 1.0;
// Each window keeps a count, a sum and a histogram of its latencies, not
// the latencies: bucket b holds [kLatencyMinUs * g^b, kLatencyMinUs *
// g^(b+1)) with g = kLatencyGrowth, so a percentile read from it is within
// about 0.5% of the sample's, and the memory a run needs does not grow
// with the number of requests it completes. The last bucket ends near 10 s.
constexpr double kLatencyMinUs = 0.1;
constexpr double kLatencyGrowth = 1.01;
constexpr std::size_t kLatencyBuckets = 1852;
// Bounds on the traced phase, which keep a trace file to about 25 MB. The
// per-layer metrics are averages per iteration or request; the iteration
// cap is high enough that the traced minimum, like the untraced one, is
// taken over dozens of iterations.
constexpr std::int64_t kTracedIterations = 60;
constexpr std::int64_t kTracedRequestsPerClient = 2500;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

/// Builder of a small JSON object (the driver's big sample arrays are
/// streamed by Phase::write instead).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  JsonObject& integer(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& array(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonObject& strings(const std::string& key,
                      const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? ",\"" : "\"") + json_escape(v[i]) + "\"";
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + json_escape(key) + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T>
void write_numbers(std::FILE* f, const std::vector<T>& v, const char* fmt) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) std::fputc(',', f);
    std::fprintf(f, fmt, static_cast<double>(v[i]));
  }
  std::fputc(']', f);
}

/// Client-side latencies of one request kind in one window.
struct LatencyWindow {
  std::int64_t count = 0;
  double sum_us = 0.0;
  std::vector<std::uint32_t> buckets;  ///< kLatencyBuckets once used

  void add(double us) {
    static const double log_growth = std::log(kLatencyGrowth);
    const double b =
        std::floor(std::log(std::max(us, kLatencyMinUs) / kLatencyMinUs) /
                   log_growth);
    if (buckets.empty()) buckets.assign(kLatencyBuckets, 0);
    ++buckets[static_cast<std::size_t>(
        std::min(b, static_cast<double>(kLatencyBuckets - 1)))];
    ++count;
    sum_us += us;
  }
  void merge(const LatencyWindow& other) {
    if (other.count == 0) return;
    if (buckets.empty()) buckets.assign(kLatencyBuckets, 0);
    for (std::size_t b = 0; b < kLatencyBuckets; ++b)
      buckets[b] += other.buckets[b];
    count += other.count;
    sum_us += other.sum_us;
  }
};

/// What one phase (warm-up, untraced or traced) measured.
struct Phase {
  /// Single-threaded workloads: op kind -> one time (ms) per iteration.
  std::map<std::string, std::vector<double>> samples;
  /// Service: window -> request kind -> latencies of the requests sent in
  /// that window; window_s holds each window's length.
  std::vector<std::map<std::string, LatencyWindow>> windows;
  std::vector<double> window_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t iterations = 0;  ///< checked iterations (or requests)
  double wall_s = 0.0;
  /// Wall time of the calling threads' loops, summed over the threads.
  double thread_s = 0.0;
  std::vector<std::string> errors;  ///< first few failure messages
  std::map<std::string, double> counts;  ///< workload-specific counts

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < kMaxReportedErrors) errors.push_back(what);
  }
  void merge_outcome(const Phase& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& e : other.errors)
      if (errors.size() < kMaxReportedErrors) errors.push_back(e);
  }
  /// Appends a later phase of the same kind: its samples and windows
  /// follow this one's.
  void append(const Phase& other) {
    merge_outcome(other);
    iterations += other.iterations;
    wall_s += other.wall_s;
    thread_s += other.thread_s;
    for (const auto& [kind, v] : other.samples)
      samples[kind].insert(samples[kind].end(), v.begin(), v.end());
    windows.insert(windows.end(), other.windows.begin(), other.windows.end());
    window_s.insert(window_s.end(), other.window_s.begin(),
                    other.window_s.end());
  }
  /// Windows are written as [{kind: {"n", "sum_us", "hist": [bucket,
  /// count, ...]}}], the histogram's non-empty buckets only.
  void write(std::FILE* f) const {
    std::fputs("{\"samples\":{", f);
    const char* sep = "";
    for (const auto& [kind, v] : samples) {
      std::fprintf(f, "%s\"%s\":", sep, kind.c_str());
      write_numbers(f, v, "%.9g");
      sep = ",";
    }
    std::fputs("},\"window_s\":", f);
    write_numbers(f, window_s, "%.9g");
    std::fputs(",\"windows\":[", f);
    for (std::size_t w = 0; w < windows.size(); ++w) {
      std::fputs(w ? ",{" : "{", f);
      sep = "";
      for (const auto& [kind, lat] : windows[w]) {
        std::fprintf(f, "%s\"%s\":{\"n\":%lld,\"sum_us\":%.17g,\"hist\":[",
                     sep, kind.c_str(), static_cast<long long>(lat.count),
                     lat.sum_us);
        const char* comma = "";
        for (std::size_t b = 0; b < lat.buckets.size(); ++b)
          if (lat.buckets[b]) {
            std::fprintf(f, "%s%zu,%u", comma, b, lat.buckets[b]);
            comma = ",";
          }
        std::fputs("]}", f);
        sep = ",";
      }
      std::fputc('}', f);
    }
    JsonObject counts_json;
    for (const auto& [name, v] : counts) counts_json.num(name, v);
    std::fprintf(f,
                 "],\"counts\":%s,\"iterations\":%lld,\"wall_s\":%.17g,"
                 "\"thread_s\":%.17g}",
                 counts_json.str().c_str(),
                 static_cast<long long>(iterations), wall_s, thread_s);
  }
};

/// Runs `iteration` until `seconds` have passed, at least `min_iters` and
/// (when > 0) at most `max_iters` times. An iteration returns its per-op
/// timings and an error string; a failed or throwing iteration counts as a
/// failure, never as samples.
using Iteration =
    std::function<std::string(std::int64_t, std::map<std::string, double>&)>;

Phase timed_loop(double seconds, std::int64_t min_iters,
                 std::int64_t max_iters, const Iteration& iteration) {
  Phase phase;
  const auto t0 = Clock::now();
  const auto deadline = deadline_after(seconds);
  for (std::int64_t i = 0; (max_iters <= 0 || i < max_iters) &&
                          (i < min_iters || Clock::now() < deadline);
       ++i) {
    ++phase.attempted;
    std::map<std::string, double> ms;
    std::string err;
    try {
      err = iteration(i, ms);
    } catch (const std::exception& e) {
      err = std::string("exception: ") + e.what();
    }
    if (!err.empty()) {
      phase.fail(err);
      continue;
    }
    ++phase.iterations;
    for (const auto& [kind, v] : ms) phase.samples[kind].push_back(v);
  }
  phase.wall_s = seconds_since(t0);
  phase.thread_s = phase.wall_s;
  return phase;
}

std::map<std::string, double> obs_counters() {
  std::map<std::string, double> out;
  const obs::Snapshot snap = obs::snapshot();
  for (const auto& c : snap.counters)
    out["obs." + c.name] = static_cast<double>(c.value);
  for (const auto& g : snap.gauges)
    out["obs." + g.name] = static_cast<double>(g.value);
  return out;
}

/// Original bytes of an AmrCompressed, and its blob bytes by level and by
/// blob kind.
std::map<std::string, double> artifact_counts(
    const compress::AmrCompressed& c) {
  std::map<std::string, double> out;
  out["original_bytes"] = static_cast<double>(c.original_bytes());
  for (std::size_t l = 0; l < c.levels.size(); ++l)
    for (const auto& p : c.levels[l].patches) {
      const double n = static_cast<double>(p.blob.size());
      out["bytes.level" + std::to_string(l)] += n;
      const bool chunked = compress::ChunkedCompressor::is_chunked_blob(p.blob);
      out[chunked ? "bytes.container" : "bytes.plain"] += n;
      out[chunked ? "blobs.container" : "blobs.plain"] += 1;
    }
  return out;
}

double composite_psnr(const amr::AmrHierarchy& original,
                      const amr::AmrHierarchy& decoded) {
  const Array3<double> a = original.composite_uniform();
  const Array3<double> b = decoded.composite_uniform();
  return metrics::psnr(a.span(), b.span());
}

/// One workload: a set-up (repeatable, timed as a whole) and a measured
/// phase. Everything a phase needs lives in the workload object.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup(std::uint64_t seed) = 0;
  virtual Phase warmup() = 0;
  /// `traced` adds the per-layer probes that only the traced phase pays.
  virtual Phase run(double seconds, bool traced) = 0;
  [[nodiscard]] virtual double ratio() const = 0;
  [[nodiscard]] virtual double psnr_db() const = 0;
  [[nodiscard]] virtual std::map<std::string, double> fixed_counts() const = 0;
  [[nodiscard]] virtual int client_threads() const { return 1; }
};

// ---- insitu_nyx: the per-plotfile write path -------------------------

class InsituNyx final : public Workload {
 public:
  void setup(std::uint64_t /*seed*/) override {
    codec_ = compress::make_compressor("sz-lr");
    ds_ = std::make_unique<sim::SyntheticDataset>(
        core::make_dataset(core::nyx_spec(false)));
    ref_ = std::make_unique<compress::AmrCompressed>(compress::compress_hierarchy(
        ds_->hierarchy, *codec_, kRelEb, compress::RedundantHandling::kMeanFill));
    const amr::AmrHierarchy decoded =
        compress::decompress_hierarchy(*ref_, *codec_);
    const std::string err =
        perfbench::check_within_eb(ds_->hierarchy, decoded, ref_->abs_eb);
    if (!err.empty()) throw Error(ErrorCode::kDecodeFailure, "setup: " + err);
    psnr_ = composite_psnr(ds_->hierarchy, decoded);
  }

  Phase warmup() override {
    return run_iterations(0.0, kWarmupIterations, kWarmupIterations);
  }
  Phase run(double seconds, bool traced) override {
    return run_iterations(seconds, 1, traced ? kTracedIterations : 0);
  }
  [[nodiscard]] double ratio() const override { return ref_->ratio(); }
  [[nodiscard]] double psnr_db() const override { return psnr_; }
  [[nodiscard]] std::map<std::string, double> fixed_counts() const override {
    return artifact_counts(*ref_);
  }

 private:
  Phase run_iterations(double seconds, std::int64_t min_iters,
                       std::int64_t max_iters) {
    return timed_loop(seconds, min_iters, max_iters, [&](std::int64_t,
                                              std::map<std::string, double>& ms) {
      OBS_SPAN("perfbench.iteration");
      const auto t0 = Clock::now();
      compress::AmrCompressed c = [&] {
        OBS_SPAN("perfbench.compress_hierarchy");
        return compress::compress_hierarchy(
            ds_->hierarchy, *codec_, kRelEb,
            compress::RedundantHandling::kMeanFill);
      }();
      const auto t1 = Clock::now();
      amr::AmrHierarchy d = [&] {
        OBS_SPAN("perfbench.decompress_hierarchy");
        return compress::decompress_hierarchy(c, *codec_);
      }();
      const auto t2 = Clock::now();
      OBS_SPAN("perfbench.check");
      std::string err = perfbench::check_same_blobs(*ref_, c);
      if (err.empty())
        err = perfbench::check_within_eb(ds_->hierarchy, d, c.abs_eb);
      ms["compress_ms"] = ms_between(t0, t1);
      ms["decompress_ms"] = ms_between(t1, t2);
      return err;
    });
  }

  std::unique_ptr<compress::Compressor> codec_;
  std::unique_ptr<sim::SyntheticDataset> ds_;
  std::unique_ptr<compress::AmrCompressed> ref_;
  double psnr_ = 0.0;
};

// ---- WarpX artifact shared by iso_warpx and service_warpx ------------

/// The quarter-scale WarpX hierarchy compressed once as
/// chunked-sz-lr@16x16x16 with the redundant coarse data kept, so every
/// patch is a container whose tiles a cull can skip; plus the reference
/// decode every read path is checked against.
struct WarpxArtifact {
  std::unique_ptr<compress::Compressor> codec;
  std::unique_ptr<sim::SyntheticDataset> ds;
  std::unique_ptr<compress::AmrCompressed> compressed;
  std::unique_ptr<amr::AmrHierarchy> decoded;
  double iso = 0.0;
  double psnr_db = 0.0;

  void build() {
    codec = compress::make_compressor(kWarpxCodec);
    const core::DatasetSpec spec = core::warpx_spec(false);
    ds = std::make_unique<sim::SyntheticDataset>(core::make_dataset(spec));
    iso = core::pick_iso_value(spec, ds->fine_truth);
    compressed = std::make_unique<compress::AmrCompressed>(
        compress::compress_hierarchy(ds->hierarchy, *codec, kRelEb,
                                     compress::RedundantHandling::kKeep));
    decoded = std::make_unique<amr::AmrHierarchy>(
        compress::decompress_hierarchy(*compressed, *codec));
    const std::string err = perfbench::check_within_eb(
        ds->hierarchy, *decoded, compressed->abs_eb);
    if (!err.empty()) throw Error(ErrorCode::kDecodeFailure, "setup: " + err);
    psnr_db = composite_psnr(ds->hierarchy, *decoded);
  }
};

// ---- iso_warpx: post-hoc visualization -------------------------------

class IsoWarpx final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    art_.build();
    seed_ = static_cast<std::int64_t>(seed);
    ref_mesh_ = vis::amr_isosurface(*art_.decoded, art_.iso, kMethod);
  }
  Phase warmup() override {
    return run_iterations(0.0, kWarmupIterations, kWarmupIterations, false);
  }
  Phase run(double seconds, bool traced) override {
    return run_iterations(seconds, 1, traced ? kTracedIterations : 0, traced);
  }
  [[nodiscard]] double ratio() const override {
    return art_.compressed->ratio();
  }
  [[nodiscard]] double psnr_db() const override { return art_.psnr_db; }
  [[nodiscard]] std::map<std::string, double> fixed_counts() const override {
    auto out = artifact_counts(*art_.compressed);
    out["vis.triangles"] = static_cast<double>(ref_mesh_.num_triangles());
    return out;
  }

 private:
  static constexpr vis::VisMethod kMethod = vis::VisMethod::kDualCellSwitching;

  Phase run_iterations(double seconds, std::int64_t min_iters,
                       std::int64_t max_iters, bool traced) {
    vis::StreamedIsoStats last{};
    Phase phase = timed_loop(
        seconds, min_iters, max_iters,
        [&](std::int64_t i, std::map<std::string, double>& ms) {
          OBS_SPAN("perfbench.iteration");
          vis::TriMesh full;
          vis::TriMesh streamed;
          vis::StreamedIsoStats stats;
          auto run_full = [&] {
            const auto t0 = Clock::now();
            const amr::AmrHierarchy h = [&] {
              OBS_SPAN("perfbench.decompress_hierarchy");
              return compress::decompress_hierarchy(*art_.compressed,
                                                    *art_.codec);
            }();
            {
              OBS_SPAN("perfbench.amr_isosurface");
              full = vis::amr_isosurface(h, art_.iso, kMethod);
            }
            ms["iso_full_ms"] = ms_between(t0, Clock::now());
            if (traced) {
              // amr_isosurface has no inner spans; the public rasterizer
              // it starts with is timed on its own to split the extract.
              OBS_SPAN("perfbench.rasterize_levels");
              (void)vis::rasterize_levels(h);
            }
          };
          auto run_streamed = [&] {
            OBS_SPAN("perfbench.amr_isosurface_streamed");
            const auto t0 = Clock::now();
            streamed = vis::amr_isosurface_streamed(
                *art_.compressed, *art_.codec, art_.iso, kMethod, {}, &stats);
            ms["iso_streamed_ms"] = ms_between(t0, Clock::now());
          };
          // Alternate the order so a slow phase of the machine or a warm
          // cache favours neither path.
          if ((i + seed_) % 2 == 0) {
            run_full();
            run_streamed();
          } else {
            run_streamed();
            run_full();
          }
          OBS_SPAN("perfbench.check");
          std::string err = perfbench::check_same_mesh(full, streamed);
          if (err.empty()) err = perfbench::check_same_mesh(ref_mesh_, full);
          if (!err.empty()) return "mesh: " + err;
          last = stats;
          return std::string();
        });
    phase.counts["tile_stream.tiles_total"] = static_cast<double>(last.tiles_total);
    phase.counts["tile_stream.tiles_decoded"] =
        static_cast<double>(last.tiles_decoded);
    phase.counts["tile_stream.tiles_culled"] = static_cast<double>(
        last.tiles_culled_exact + last.tiles_culled_conservative);
    phase.counts["tile_stream.peak_live_bytes"] =
        static_cast<double>(last.peak_live_bytes);
    return phase;
  }

  WarpxArtifact art_;
  std::int64_t seed_ = 0;
  vis::TriMesh ref_mesh_;
};

// ---- service_warpx: interactive viewers ------------------------------

/// Seeded request stream of one viewer: a random walk of a focus inside
/// the bounding box of the refined pulse. 80% point probes near the
/// focus, 15% z-plane slices through it, 5% level-0 boxes around it.
///
/// Its sizes follow from the tile edge T (kTileEdge) and the cache budget
/// (32 full tiles):
/// - a point probe is at most one cell from the focus, so the probes
///   between two moves of the focus across a tile face read the same few
///   tiles and hit;
/// - per request the focus steps up to T/8 cells in x and y and up to T/4
///   along z, the pulse's long axis. A uniform step of up to r cells has
///   variance r(r+1)/3, so the focus crosses a tile face about every
///   T^2 / (r(r+1)/3) requests: ~128 in x and y, ~38 along z. A z-plane
///   reads every tile of its slab, so planes move to a new slab, and
///   miss, every few dozen requests;
/// - a region box has edge T + 1 coarse cells, the largest that spans at
///   most two tiles per axis: it reads at most 8 tiles (256 KiB), a
///   quarter of the budget, so one box cannot flush the cache.
class ViewerWalk {
 public:
  ViewerWalk(const compress::AmrCompressed& c, std::uint64_t seed)
      : rng_(seed), coarse_(c.domains.front()), ratio_(c.ref_ratio) {
    const auto& fine = c.boxes.back();
    bbox_ = fine.front();
    for (const auto& b : fine)
      bbox_ = amr::Box{elementwise_min(bbox_.lo(), b.lo()),
                       elementwise_max(bbox_.hi(), b.hi())};
    const amr::Box& start = fine[rng_.next_below(fine.size())];
    focus_ = {(start.lo().x + start.hi().x) / 2,
              (start.lo().y + start.hi().y) / 2,
              (start.lo().z + start.hi().z) / 2};
  }

  service::Request next() {
    focus_ = clamp(bbox_, {focus_.x + step(kTileEdge / 8),
                           focus_.y + step(kTileEdge / 8),
                           focus_.z + step(kTileEdge / 4)});
    const double u = rng_.next_double();
    if (u < 0.80)
      return service::Request::Point(
          clamp(bbox_, {focus_.x + step(1), focus_.y + step(1),
                        focus_.z + step(1)}));
    if (u < 0.95) return service::Request::Plane(2, focus_.z);
    const amr::IntVect c{focus_.x / ratio_, focus_.y / ratio_,
                         focus_.z / ratio_};
    const amr::IntVect half = amr::IntVect::uniform(kTileEdge / 2);
    return service::Request::Region(
        0, amr::Box{clamp(coarse_, c - half), clamp(coarse_, c + half)});
  }

 private:
  std::int64_t step(std::int64_t r) {
    return static_cast<std::int64_t>(
               rng_.next_below(static_cast<std::uint64_t>(2 * r + 1))) -
           r;
  }
  static amr::IntVect clamp(const amr::Box& b, amr::IntVect p) {
    return elementwise_min(elementwise_max(p, b.lo()), b.hi());
  }

  Rng rng_;
  amr::Box coarse_;
  std::int64_t ratio_;
  amr::Box bbox_;
  amr::IntVect focus_;
};

const char* kind_name(service::Request::Kind k) {
  switch (k) {
    case service::Request::Kind::kPoint:
      return "point";
    case service::Request::Kind::kPlane:
      return "plane";
    case service::Request::Kind::kRegion:
      return "region";
    case service::Request::Kind::kIso:
      break;
  }
  return "iso";
}

class ServiceWarpx final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    service_.reset();
    art_.build();
    composite_ = art_.decoded->composite_uniform();
    finest_ = art_.compressed->domains.back();
    service::ServiceOptions opts;
    opts.cache_bytes = kServiceCacheBytes;
    service_ = std::make_unique<service::QueryService>(*art_.compressed,
                                                       *art_.codec, opts);
    seed_ = seed;
  }
  Phase warmup() override {
    walks_.clear();
    for (int c = 0; c < kServiceClients; ++c)
      walks_.emplace_back(*art_.compressed,
                          seed_ * 1000003u + static_cast<std::uint64_t>(c));
    return run_clients(kServiceWarmupSeconds, 0);
  }
  Phase run(double seconds, bool traced) override {
    const auto before = service_->counters();
    const auto cache_before = service_->cache().counters();
    Phase phase =
        run_clients(seconds, traced ? kTracedRequestsPerClient : 0);
    const auto after = service_->counters();
    const auto cache_after = service_->cache().counters();
    phase.counts["service.requests"] =
        static_cast<double>(after.requests - before.requests);
    phase.counts["service.tiles_decoded"] =
        static_cast<double>(after.tiles_decoded - before.tiles_decoded);
    phase.counts["service.failures"] =
        static_cast<double>(after.failures - before.failures);
    phase.counts["tile_cache.hits"] =
        static_cast<double>(cache_after.hits - cache_before.hits);
    phase.counts["tile_cache.misses"] =
        static_cast<double>(cache_after.misses - cache_before.misses);
    phase.counts["tile_cache.evictions"] =
        static_cast<double>(cache_after.evictions - cache_before.evictions);
    phase.counts["tile_cache.peak_bytes"] =
        static_cast<double>(cache_after.peak_bytes);
    return phase;
  }
  [[nodiscard]] double ratio() const override {
    return art_.compressed->ratio();
  }
  [[nodiscard]] double psnr_db() const override { return art_.psnr_db; }
  [[nodiscard]] std::map<std::string, double> fixed_counts() const override {
    auto out = artifact_counts(*art_.compressed);
    out["cache_budget_bytes"] = static_cast<double>(kServiceCacheBytes);
    return out;
  }
  [[nodiscard]] int client_threads() const override { return kServiceClients; }

 private:
  std::string check(const service::Request& req,
                    const service::Response& resp) const {
    if (!resp.outcome.ok()) return "request failed: " + resp.outcome.message;
    if (resp.outcome.degraded()) return "response degraded";
    switch (req.kind) {
      case service::Request::Kind::kPoint:
        return perfbench::check_point(composite_, finest_, req.point,
                                      resp.value);
      case service::Request::Kind::kPlane:
        return perfbench::check_plane(composite_, finest_, req.axis,
                                      req.plane_index, resp.slice);
      case service::Request::Kind::kRegion:
        return perfbench::check_region(*art_.decoded, req.level, req.region,
                                       resp.patches);
      case service::Request::Kind::kIso:
        break;
    }
    return "unexpected request kind";
  }

  /// Closed loop: each client sends its next request only after the
  /// previous response arrived and was checked. `max_requests` > 0 caps
  /// each client's requests.
  Phase run_clients(double seconds, std::int64_t max_requests) {
    std::vector<Phase> per_client(kServiceClients);
    const auto t0 = Clock::now();
    const auto deadline = deadline_after(seconds);
    std::atomic<int> ready{0};
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kServiceClients; ++c)
        clients.emplace_back([&, c] {
          Phase& phase = per_client[static_cast<std::size_t>(c)];
          ready.fetch_add(1);
          while (ready.load() < kServiceClients) std::this_thread::yield();
          const auto c0 = Clock::now();
          try {
            client_loop(walks_[static_cast<std::size_t>(c)], t0, deadline,
                        max_requests, phase);
          } catch (const std::exception& e) {
            phase.fail(std::string("client: ") + e.what());
          }
          phase.thread_s = seconds_since(c0);
        });
    }
    Phase merged;
    merged.wall_s = seconds_since(t0);
    // Whole windows only; a phase shorter than one window (a request-capped
    // traced phase) is one window as long as the phase.
    const auto whole = static_cast<std::size_t>(merged.wall_s / kWindowSeconds);
    merged.window_s.assign(std::max<std::size_t>(whole, 1),
                           whole ? kWindowSeconds : merged.wall_s);
    merged.windows.resize(merged.window_s.size());
    for (const Phase& p : per_client) {
      merged.merge_outcome(p);
      merged.thread_s += p.thread_s;
      for (std::size_t w = 0; w < p.windows.size(); ++w) {
        if (whole && w >= whole) break;  // the trailing partial window
        for (const auto& [kind, lat] : p.windows[w]) {
          merged.windows[std::min(w, merged.windows.size() - 1)][kind].merge(
              lat);
          merged.iterations += lat.count;
        }
      }
    }
    return merged;
  }

  /// One viewer: sends a request, times it, checks the response, and
  /// files the latency under the window the request was sent in.
  void client_loop(ViewerWalk& walk, Clock::time_point t0,
                   Clock::time_point deadline, std::int64_t max_requests,
                   Phase& phase) {
    while (Clock::now() < deadline &&
           (max_requests <= 0 || phase.attempted < max_requests)) {
      OBS_SPAN("perfbench.request");
      const service::Request req = walk.next();
      const char* kind = kind_name(req.kind);
      ++phase.attempted;
      std::string err;
      Clock::time_point r0;
      double us = 0.0;
      try {
        r0 = Clock::now();
        const service::Response resp = service_->execute_full(req);
        us = 1e3 * ms_between(r0, Clock::now());
        OBS_SPAN("perfbench.check");
        err = check(req, resp);
      } catch (const std::exception& e) {
        err = std::string("exception: ") + e.what();
      }
      if (!err.empty()) {
        phase.fail(std::string(kind) + ": " + err);
        continue;
      }
      const auto w = static_cast<std::size_t>(
          std::chrono::duration<double>(r0 - t0).count() / kWindowSeconds);
      if (phase.windows.size() <= w) phase.windows.resize(w + 1);
      phase.windows[w][kind].add(us);
    }
  }

  WarpxArtifact art_;
  Array3<double> composite_;
  amr::Box finest_;
  std::uint64_t seed_ = 0;
  std::vector<ViewerWalk> walks_;
  std::unique_ptr<service::QueryService> service_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "insitu_nyx") return std::make_unique<InsituNyx>();
  if (name == "iso_warpx") return std::make_unique<IsoWarpx>();
  if (name == "service_warpx") return std::make_unique<ServiceWarpx>();
  return nullptr;
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

std::int64_t pool_threads() {
#ifdef AMRVIS_HAVE_THREAD_POOL
  return ThreadPool::global().size();
#else
  return 0;
#endif
}

int run_workload(const std::string& name, std::uint64_t seed, double seconds,
                 const std::string& trace_path) {
  std::unique_ptr<Workload> w = make_workload(name);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    w->setup(seed);
    setup_s.push_back(seconds_since(t0));
  }
  Phase outcome = w->warmup();
  // A traced run splits the seconds: a quarter untraced, the traced phase
  // (capped), another quarter untraced, so a slow spell of the machine is
  // less likely to fall on one side only of the overhead comparison.
  const bool tracing = !trace_path.empty();
  Phase untraced = w->run(tracing ? seconds / 4 : seconds, false);
  std::optional<Phase> traced;
  if (tracing) {
    obs::reset();
    obs::trace_arm(trace_path.c_str(), std::size_t{1} << 16);
    traced = w->run(seconds / 2, true);
    obs::trace_disarm();
    traced->counts.merge(obs_counters());
    // Registry dump of the traced phase, for tools/check_trace.py.
    if (std::FILE* f = std::fopen((trace_path + ".metrics.json").c_str(), "w")) {
      std::fputs(obs::snapshot_json().c_str(), f);
      std::fclose(f);
    }
    outcome.merge_outcome(*traced);
    untraced.append(w->run(seconds / 4, false));
  }
  outcome.merge_outcome(untraced);

  JsonObject head;
  head.str("workload", name)
      .integer("seed", static_cast<std::int64_t>(seed))
      .integer("nproc", std::thread::hardware_concurrency())
      .integer("omp_threads", hardware_threads())
      .integer("client_threads", w->client_threads())
      .integer("pool_threads", name == "service_warpx" ? pool_threads() : 0)
      .array("setup_s", setup_s)
      .raw("latency_hist", JsonObject()
                               .num("min_us", kLatencyMinUs)
                               .num("growth", kLatencyGrowth)
                               .str())
      .num("ratio", w->ratio())
      .num("psnr_db", w->psnr_db())
      .num("peak_rss_kb", peak_rss_kb())
      .integer("attempted", outcome.attempted)
      .integer("failed", outcome.failed)
      .strings("errors", outcome.errors);
  JsonObject fixed;
  for (const auto& [k, v] : w->fixed_counts()) fixed.num(k, v);
  head.raw("fixed", fixed.str());
  std::string text = head.str();
  text.pop_back();  // reopen the object for the streamed phases
  std::fputs(text.c_str(), stdout);
  std::fputs(",\"untraced\":", stdout);
  untraced.write(stdout);
  if (traced) {
    std::fputs(",\"traced\":", stdout);
    traced->write(stdout);
  }
  std::fputs("}\n", stdout);
  return outcome.failed == 0 ? 0 : 1;
}

// ---- --selftest: every output check rejects a corrupted output -------

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  const auto codec = compress::make_compressor(kWarpxCodec);
  const sim::SyntheticDataset ds =
      core::make_dataset(core::smoke_spec(core::warpx_spec(false, 7)));
  const compress::AmrCompressed c = compress::compress_hierarchy(
      ds.hierarchy, *codec, kRelEb, compress::RedundantHandling::kKeep);
  const amr::AmrHierarchy d = compress::decompress_hierarchy(c, *codec);

  expect(perfbench::check_same_blobs(c, c).empty(), "blobs: identical pass");
  compress::AmrCompressed flipped = c;
  auto& blob = flipped.levels.back().patches.back().blob;
  blob[blob.size() / 2] ^= 0x10;
  expect(!perfbench::check_same_blobs(c, flipped).empty(),
         "blobs: one flipped byte rejected");

  expect(perfbench::check_within_eb(ds.hierarchy, d, c.abs_eb).empty(),
         "error bound: decoded hierarchy passes");
  amr::AmrHierarchy off = d;
  off.level(0).fabs[0].values()[3] += 2.5 * c.abs_eb;
  expect(!perfbench::check_within_eb(ds.hierarchy, off, c.abs_eb).empty(),
         "error bound: one cell off by 2.5 abs_eb rejected");

  const core::DatasetSpec spec = core::smoke_spec(core::warpx_spec(false, 7));
  const double iso = core::pick_iso_value(spec, ds.fine_truth);
  const vis::TriMesh mesh =
      vis::amr_isosurface(d, iso, vis::VisMethod::kDualCellSwitching);
  const vis::TriMesh streamed = vis::amr_isosurface_streamed(
      c, *codec, iso, vis::VisMethod::kDualCellSwitching);
  expect(!mesh.empty(), "mesh: smoke isosurface is not empty");
  expect(perfbench::check_same_mesh(mesh, streamed).empty(),
         "mesh: streamed equals full inflate");
  vis::TriMesh moved = mesh;
  moved.vertices[moved.vertices.size() / 2].y =
      std::nextafter(moved.vertices[moved.vertices.size() / 2].y, 1e300);
  expect(!perfbench::check_same_mesh(mesh, moved).empty(),
         "mesh: one vertex moved by one ulp rejected");
  vis::TriMesh swapped = mesh;
  if (swapped.triangles.size() >= 2)
    std::swap(swapped.triangles.front(), swapped.triangles.back());
  expect(!perfbench::check_same_mesh(mesh, swapped).empty(),
         "mesh: two triangles swapped rejected");

  const Array3<double> composite = d.composite_uniform();
  const amr::Box finest = c.domains.back();
  service::QueryService svc(c, *codec);
  const amr::IntVect p = c.boxes.back().front().lo();
  const double value = svc.point(p);
  expect(perfbench::check_point(composite, finest, p, value).empty(),
         "point: served value passes");
  expect(!perfbench::check_point(composite, finest, p,
                                 std::nextafter(value, 1e300))
              .empty(),
         "point: value off by one ulp rejected");
  const std::int64_t z = (finest.lo().z + finest.hi().z) / 2;
  Array3<double> slice = svc.plane(2, z);
  expect(perfbench::check_plane(composite, finest, 2, z, slice).empty(),
         "plane: served slice passes");
  slice[slice.size() - 1] += 1.0;
  expect(!perfbench::check_plane(composite, finest, 2, z, slice).empty(),
         "plane: one changed cell rejected");
  const amr::Box region = c.domains.front().grow(-2);
  auto patches = svc.region(0, region);
  expect(perfbench::check_region(d, 0, region, patches).empty(),
         "region: served patches pass");
  patches.back().data[0] -= 1.0;
  expect(!perfbench::check_region(d, 0, region, patches).empty(),
         "region: one changed cell rejected");
  patches.pop_back();
  expect(!perfbench::check_region(d, 0, region, patches).empty(),
         "region: a missing patch rejected");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("workload", "", "insitu_nyx, iso_warpx or service_warpx");
  cli.add_flag("seed", "1", "seed of the request walks and op order");
  cli.add_flag("seconds", "10", "measured wall time per phase");
  cli.add_flag("trace", "", "run a traced phase writing spans to this path");
  cli.add_flag("selftest", "0", "check that every output check rejects "
                                "a corrupted output");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get_bool("selftest")) return selftest();
    if (fault::enabled()) {
      std::fprintf(stderr, "perfbench: a fault plan is armed "
                           "(AMRVIS_FAULT_SPEC); refusing to measure\n");
      return 2;
    }
    const std::string trace = cli.get("trace");
    if (obs::trace_armed()) {
      if (trace.empty()) {
        std::fprintf(stderr, "perfbench: tracing is armed (AMRVIS_TRACE) in "
                             "an untraced run; refusing to measure\n");
        return 2;
      }
      obs::trace_disarm();  // the traced phase arms its own file
    }
    const double seconds = cli.get_double("seconds");
    if (!(seconds > 0.0)) {
      std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
      return 2;
    }
    return run_workload(cli.get("workload"),
                        static_cast<std::uint64_t>(cli.get_int("seed")),
                        seconds, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
