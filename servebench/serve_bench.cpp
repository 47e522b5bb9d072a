// serve_bench: one workload, one seed, one measured run.
//
//   serve_bench --workload fresh-12x12 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and traced (library spans on, benchmark-side spans kept in
// memory and written as Chrome trace JSON) and then the per-layer ledger.
// The last stdout line is the result object; the line before it carries
// the host/build fingerprint and the capacity probe.  Exit code 1 when
// the correctness gate fails, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "obs/obs.h"
#include "obs/trace_export.h"
#include "servebench.h"

namespace sb = servebench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string source_id = "unknown";
  std::string out_dir = ".";
  bool inject_mismatch = false;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--inject-mismatch") {
      a->inject_mismatch = true;
    } else if (!has_value) {
      return false;
    } else if (k == "--workload") {
      a->workload = argv[++i];
    } else if (k == "--seed") {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(argv[++i]);
    } else if (k == "--trace") {
      a->trace = std::atoi(argv[++i]);
    } else if (k == "--source-id") {
      a->source_id = argv[++i];
    } else if (k == "--out-dir") {
      a->out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) out += (out.size() > 1 ? ", " : "") + num(x);
  return out + "]";
}

struct Metrics {
  std::string body;
  void add(const std::string& name, double value, const char* unit) {
    body += (body.empty() ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + num(value) + ", \"unit\": \"" + unit + "\"}";
  }
};

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// The window's figures are medians over its 1 s slices, so a burst of
/// host interference moves one slice, not the run's result.
double median(const std::vector<double>& v) { return sb::quantile(v, 0.5); }

/// The C = 2 sharded server is equivalent to the monolithic oracle but
/// not bit-identical: over the distinct frames of the schedule, each
/// counted once, at most 1 symbol in 1000 may decide differently and its
/// symbol errors must stay within 5% (+10 symbols) of the oracle's on the
/// same frames.  Returns why the run is outside that, or "".
std::string sharded_tolerance(const sb::RunResult& r) {
  const double diff_rate = ratio(r.decision_diffs, r.distinct_symbols);
  const double gap = std::abs(static_cast<double>(r.distinct_errors) -
                              static_cast<double>(r.distinct_oracle_errors));
  if (diff_rate > 1e-3) {
    return "sharded decisions differ from the oracle on " + num(diff_rate) +
           " of symbols";
  }
  if (gap > 0.05 * static_cast<double>(r.distinct_oracle_errors) + 10.0) {
    return "sharded SER strays from the oracle's";
  }
  return "";
}

std::string gate(const sb::WorkloadSpec& w, const sb::RunResult& r) {
  std::string why;
  if (r.mismatched > 0) {
    why = std::to_string(r.mismatched) +
          " frames differ from the synchronous detect_frame oracle";
  } else if (r.other_failed > 0) {
    why = std::to_string(r.other_failed) + " frames failed or quarantined";
  } else if (!r.stage_check_error.empty()) {
    why = "span cross-check: " + r.stage_check_error;
  } else if (r.ok == 0 || r.vectors_ok == 0) {
    why = "no frame completed inside the window";
  } else if (w.sharded) {
    why = sharded_tolerance(r);
  }
  return why;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--source-id <id>] [--out-dir <dir>] "
                 "[--inject-mismatch]\n");
    return 2;
  }
  const sb::WorkloadSpec* w = sb::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "serve_bench: unknown workload \"%s\"; one of:",
                 args.workload.c_str());
    for (const auto& x : sb::workloads()) std::fprintf(stderr, " %s", x.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  try {
    const std::string cap_before = sb::capacity_probe_json();
    std::vector<sb::CellPool> pools = sb::build_pools(*w, args.seed);

    sb::RunOptions opt;
    opt.inject_mismatch = args.inject_mismatch;
    Metrics m;
    std::string info, why;
    std::uint64_t attempted = 0, failed = 0;
    if (args.trace == 0) {
      opt.seconds = args.seconds;
      const sb::RunResult r = sb::run_workload(*w, pools, opt);
      why = gate(*w, r);
      attempted = r.attempted;
      failed = r.attempted - r.ok;
      m.add("setup_s", r.setup_s, "s");
      m.add("throughput_vps", median(r.slice_vps), "1/s");
      m.add("cpu_us_per_vector", median(r.slice_cpu_us_per_vector), "us");
      m.add("frame_p50_us", median(r.slice_p50_us), "us");
      m.add("peak_rss_mb", sb::peak_rss_mb(), "MB");
      // The same figures over the whole window, for reference.
      info = "\"window\": {\"slices\": " + std::to_string(r.slice_vps.size()) +
             ", \"throughput_vps\": " +
             num(static_cast<double>(r.vectors_ok) / r.window_s) +
             ", \"cpu_us_per_vector\": " +
             num(r.cpu_s * 1e6 / static_cast<double>(r.vectors_ok)) +
             ", \"frame_p50_us\": " + num(r.latency.quantile(0.50)) +
             ", \"frame_p99_us\": " + num(r.latency.quantile(0.99)) +
             ", \"slice_p99_us\": " + num_list(r.slice_p99_us) +
             ", \"slice_vps\": " + num_list(r.slice_vps) +
             "}, \"frame_p99_us\": " + num(median(r.slice_p99_us)) +
             ", \"setup_wall_s\": " + num(r.setup_wall_s) +
             ", \"frame_samples\": " + std::to_string(r.frame_samples()) +
             ", \"ser\": " + num(ratio(r.symbol_errors, r.symbols)) +
             ", \"oracle_ser\": " + num(ratio(r.oracle_errors, r.symbols)) +
             ", \"decision_diffs\": " + std::to_string(r.decision_diffs) +
             ", \"distinct_symbols\": " + std::to_string(r.distinct_symbols) +
             ", \"failed_ratio\": " + num(ratio(failed, attempted)) +
             ", \"deadline_miss_ratio\": " +
             num(ratio(r.deadline_missed, attempted)) +
             ", \"stale_reuse_frames\": " + std::to_string(r.stale) +
             ", \"shed\": " + std::to_string(r.shed) +
             ", \"reconfigs\": " + std::to_string(r.reconfigs) +
             ", \"gen_late_p99_us\": " +
             num(r.gen_late.quantile(0.99));
    } else {
      // Untraced and traced halves of the same workload, then the ledger.
      opt.seconds = args.seconds * 0.3;
      opt.setup_reps = 3;
      const sb::RunResult u = sb::run_workload(*w, pools, opt);
      flexcore::obs::ObsConfig oc;
      oc.sample_every = 1;
      flexcore::obs::configure(oc);
      opt.traced = true;
      opt.inject_mismatch = false;  // already applied to the pools
      const sb::RunResult t = sb::run_workload(*w, pools, opt);
      flexcore::obs::configure(flexcore::obs::ObsConfig{});
      const std::map<std::string, double> ledger =
          sb::layer_ledger(*w, pools, args.seconds * 0.4);

      why = gate(*w, u);
      if (why.empty()) why = gate(*w, t);
      const std::string stem =
          args.out_dir + "/trace-" + w->name + "-" + std::to_string(args.seed);
      if (!sb::write_chrome_trace(stem + ".json", t.spans, w->name) ||
          !flexcore::obs::export_chrome_trace(stem + "-obs.json")) {
        if (why.empty()) why = "could not write the trace files";
      }
      attempted = u.attempted + t.attempted;
      failed = attempted - u.ok - t.ok;
      const std::uint64_t misses = u.deadline_missed + t.deadline_missed;
      sb::Histogram late = u.gen_late;
      late.merge(t.gen_late);
      for (const auto& [name, value] : ledger) {
        const char* unit = "us";
        if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
          unit = "ns";
        } else if (name.find("_ratio") != std::string::npos ||
                   name.find("_share") != std::string::npos) {
          unit = "ratio";
        } else if (name == "api.frame_scaling") {
          unit = "x";
        }
        m.add(name, value, unit);
      }
      const double done = static_cast<double>(std::max<std::uint64_t>(1, t.done_counted));
      m.add("api.submit_us", t.submit_call_us / done, "us");
      m.add("api.runtime_overhead_us", t.overhead_us / done, "us");
      m.add("api.shed_ratio", ratio(u.shed + t.shed, attempted), "ratio");
      m.add("api.stale_reuse_frames", static_cast<double>(u.stale + t.stale),
            "count");
      m.add("obs.trace_overhead",
            median(t.slice_cpu_us_per_vector) /
                    median(u.slice_cpu_us_per_vector) -
                1.0,
            "ratio");
      m.add("failed_ratio", ratio(failed, attempted), "ratio");
      m.add("deadline_miss_ratio", ratio(misses, attempted), "ratio");
      m.add("gen_late_p99_us", late.quantile(0.99), "us");
      m.add("frame_p99_us", median(u.slice_p99_us), "us");
      m.add("ser", ratio(u.symbol_errors + t.symbol_errors,
                         u.symbols + t.symbols),
            "ratio");
      m.add("frame_samples",
            static_cast<double>(u.frame_samples() + t.frame_samples()),
            "count");
      info = "\"trace\": \"" + stem + ".json\", \"stage_check\": {";
      bool first = true;
      for (const auto& [k, v] : t.stage_check) {
        info += (first ? "\"" : ", \"") + k + "\": " + num(v);
        first = false;
      }
      info += "}";
    }
    const std::string cap_after = sb::capacity_probe_json();
    if (!why.empty()) info += ", \"gate\": \"" + why + "\"";
    std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"fingerprint\": %s, \"capacity_before\": %s, "
                "\"capacity_after\": %s, %s}}\n",
                w->name.c_str(), static_cast<unsigned long long>(args.seed),
                sb::fingerprint_json(*w, args.source_id).c_str(),
                cap_before.c_str(), cap_after.c_str(), info.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                why.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.body.c_str());
    std::fflush(stdout);
    if (!why.empty()) {
      std::fprintf(stderr, "serve_bench: correctness gate failed: %s\n",
                   why.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
