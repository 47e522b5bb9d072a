// Host/build fingerprint, the fixed capacity probe, small statistics, and
// the Chrome trace writer of the benchmark-side spans.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "api/detector_registry.h"
#include "channel/channel.h"
#include "channel/rng.h"
#include "servebench.h"

#ifndef SB_COMPILER
#define SB_COMPILER "unknown"
#endif
#ifndef SB_BUILD_TYPE
#define SB_BUILD_TYPE "unknown"
#endif
#ifndef SB_NATIVE_ARCH
#define SB_NATIVE_ARCH 0
#endif

namespace servebench {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass below.
  const double rank = q * static_cast<double>(v.size());
  std::size_t i = static_cast<std::size_t>(rank);
  if (static_cast<double>(i) == rank && i > 0) --i;
  return v[std::min(i, v.size() - 1)];
}

void Histogram::add(double us) {
  const double pos =
      (std::log2(std::max(us, 1e-9)) - kMinLog2) * kPerOctave;
  const int i = pos < 0.0 ? 0 : std::min(kBuckets - 1, static_cast<int>(pos));
  ++buckets_[static_cast<std::size_t>(i)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target =
      std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double n = buckets_[i];
    if (n > 0.0 && seen + n >= target) {
      const double frac = (target - seen) / n;
      return std::exp2(kMinLog2 +
                       (static_cast<double>(i) + frac) / kPerOctave);
    }
    seen += n;
  }
  return std::exp2(kMinLog2 + static_cast<double>(kBuckets) / kPerOctave);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// The i16 kernel copy the library's startup dispatch picks (the same
/// rule: a FLEXCORE_I16_ISA pin the CPU supports, else the widest ISA).
std::string i16_isa() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (const char* pin = std::getenv("FLEXCORE_I16_ISA")) {
    if (std::strcmp(pin, "base") == 0) return "base";
    if (std::strcmp(pin, "sse41") == 0 && __builtin_cpu_supports("sse4.1")) {
      return "sse41";
    }
    if (std::strcmp(pin, "avx2") == 0 && __builtin_cpu_supports("avx2")) {
      return "avx2";
    }
    if (std::strcmp(pin, "avx512") == 0 && __builtin_cpu_supports("avx512f")) {
      return "avx512";
    }
  }
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("sse4.1")) return "sse41";
#endif
  return "base";
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string fingerprint_json(const WorkloadSpec& w,
                             const std::string& source_id) {
  std::string s = "{";
  s += "\"cpu_model\": " + quote(cpu_model());
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"build_type\": " + quote(SB_BUILD_TYPE);
  s += ", \"native_arch\": " + std::string(SB_NATIVE_ARCH ? "true" : "false");
  s += ", \"obs_level\": " + std::to_string(FLEXCORE_OBS);
  s += ", \"i16_isa\": " + quote(i16_isa());
  s += ", \"compiler\": " + quote(SB_COMPILER);
  s += ", \"source\": " + quote(source_id);
  s += ", \"runtime\": {\"threads\": " + std::to_string(w.runtime.threads) +
       ", \"dispatchers\": " + std::to_string(w.runtime.dispatchers) +
       ", \"queue_capacity\": " + std::to_string(w.runtime.queue_capacity) +
       ", \"policy\": " + quote(fa::to_string(w.runtime.policy)) +
       ", \"shards\": " + std::to_string(w.sharded ? w.shards : 0) +
       ", \"compute_threads\": " + std::to_string(compute_threads(w)) + "}";
  return s + "}";
}

std::string capacity_probe_json() {
  // Fixed work: 16 fixed 12x12 channels through FlexCore-64 set_channel,
  // 4 passes, on one thread and then on nproc threads at once.
  const flexcore::modulation::Constellation qam(64);
  std::vector<CMat> hs;
  flexcore::channel::Rng rng(20170327);
  for (int i = 0; i < 16; ++i) {
    hs.push_back(flexcore::channel::rayleigh_iid(12, 12, rng));
  }
  const double nv = flexcore::channel::noise_var_for_snr_db(24.0);
  auto loop = [&] {
    fa::DetectorConfig dc;
    dc.constellation = &qam;
    auto det = fa::make_detector("flexcore-64", dc);
    for (int pass = 0; pass < 4; ++pass) {
      for (const CMat& h : hs) det->set_channel(h, nv);
    }
  };
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one, all;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = now_us();
    loop();
    one.push_back(now_us() - t0);
    t0 = now_us();
    std::vector<std::thread> ts;
    for (std::size_t i = 0; i < n; ++i) ts.emplace_back(loop);
    for (std::thread& t : ts) t.join();
    all.push_back(now_us() - t0);
  }
  const double t1 = quantile(one, 0.5), tn = quantile(all, 0.5);
  return "{\"t1_ms\": " + num(t1 * 1e-3) + ", \"tn_ms\": " + num(tn * 1e-3) +
         ", \"threads\": " + std::to_string(n) +
         ", \"scaling\": " + num(static_cast<double>(n) * t1 / tn) + "}";
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<FrameSpan>& spans,
                        const std::string& workload) {
  struct Event {
    double ts, dur;
    int depth;
    std::size_t tid;
    const char* name;
    const FrameSpan* frame;
  };
  // One track per (cell, lane): a frame takes the first lane of its cell
  // that is free at its due time, so the spans of one track nest.
  std::vector<const FrameSpan*> order;
  for (const FrameSpan& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const FrameSpan* a, const FrameSpan* b) {
              return a->due_us < b->due_us;
            });
  const double t0 = order.empty() ? 0.0 : order.front()->due_us;
  std::vector<std::vector<double>> lanes;
  std::vector<std::pair<std::size_t, std::string>> tracks;
  std::vector<Event> events;
  for (const FrameSpan* s : order) {
    if (lanes.size() <= s->cell) lanes.resize(s->cell + 1);
    auto& cl = lanes[s->cell];
    std::size_t lane = 0;
    while (lane < cl.size() && cl[lane] > s->due_us) ++lane;
    if (lane == cl.size()) {
      cl.push_back(0.0);
      tracks.push_back({s->cell * 1000 + lane + 1,
                        "cell" + std::to_string(s->cell) + "." +
                            std::to_string(lane)});
    }
    cl[lane] = s->done_us;
    const std::size_t tid = s->cell * 1000 + lane + 1;
    const double end = s->done_us;
    events.push_back({s->due_us - t0, end - s->due_us, 0, tid, "frame", s});
    events.push_back({s->submit_us - t0, s->submitted_us - s->submit_us, 1,
                      tid, "submit", s});
    if (s->pre_us + s->grid_us + s->rec_us > 0.0) {
      // FrameResult carries stage durations, not start times: the stages
      // are laid back to back so that they end at the completion.
      const double rec0 = end - s->rec_us;
      const double grid0 = rec0 - s->grid_us;
      const double pre0 = std::max(s->submitted_us, grid0 - s->pre_us);
      events.push_back({s->submitted_us - t0,
                        std::max(0.0, pre0 - s->submitted_us), 1, tid,
                        "queue-wait", s});
      events.push_back({pre0 - t0, std::max(0.0, grid0 - pre0), 1, tid,
                        "preprocess", s});
      events.push_back({grid0 - t0, s->grid_us, 1, tid, "path-grid", s});
      events.push_back({rec0 - t0, s->rec_us, 1, tid, "reconstruct", s});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts < b.ts || (a.ts == b.ts && a.depth < b.depth);
                   });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\": {\"workload\": %s, \"source\": "
                  "\"servebench\"},\n\"traceEvents\": [\n",
               quote(workload).c_str());
  bool first = true;
  for (const auto& [tid, name] : tracks) {
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": %s}}",
                 first ? "" : ",\n", tid, quote(name).c_str());
    first = false;
  }
  for (const Event& e : events) {
    // The frame span carries the cell and outcome; its children name it.
    std::fprintf(f,
                 "%s{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": "
                 "%zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"frame\": %llu",
                 first ? "" : ",\n", e.name, e.tid, e.ts, e.dur,
                 static_cast<unsigned long long>(e.frame->frame));
    if (e.depth == 0) {
      std::fprintf(f, ", \"cell\": %zu, \"status\": \"%s\"}}", e.frame->cell,
                   e.frame->status);
    } else {
      std::fprintf(f, ", \"parent\": \"frame\"}}");
    }
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
