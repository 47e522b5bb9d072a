// Multi-cell runtime sweep (new figure, beyond the paper): aggregate
// detection throughput and frame latency of the asynchronous api::Runtime
// as the number of concurrently-served cells, the admission-queue depth and
// the backpressure policy vary.  Each cell is a flexcore-16 / 16-QAM / 6x6
// session; a producer thread per cell submits OFDM frames back-to-back, so
// small queues under DropNewest/DeadlineExpire visibly shed load while
// Block holds every frame.  Emits BENCH_runtime.json for the perf
// trajectory, and EXITS NON-ZERO when Block loses a frame (its out count
// must equal cells * frames per cell at every depth).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "bench_json.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "obs/trace_export.h"
#include "sim/frame_synth.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fb = flexcore::bench;
namespace fs = flexcore::sim;
using flexcore::modulation::Constellation;

namespace {

struct SweepResult {
  double seconds = 0.0;
  fa::RuntimeStats stats;
};

SweepResult run_sweep(std::size_t cells, std::size_t queue_depth,
                      fa::QueuePolicy policy, std::size_t frames_per_cell,
                      const std::vector<fs::SynthFrame>& frames,
                      double noise_var, std::uint64_t deadline_us) {
  fa::RuntimeConfig rcfg;
  rcfg.dispatchers = std::min<std::size_t>(cells, 4);
  rcfg.queue_capacity = queue_depth;
  rcfg.policy = policy;
  fa::Runtime rt(rcfg);

  std::vector<fa::Cell*> handles;
  for (std::size_t cidx = 0; cidx < cells; ++cidx) {
    fa::CellConfig ccfg;
    ccfg.detector = "flexcore-16";
    ccfg.qam_order = 16;
    // Static channel over the burst: frames after the first reuse QR +
    // path selection, the coherence amortization of Fig. 10's stream mode.
    ccfg.reuse_preprocessing = true;
    handles.push_back(&rt.open_cell(ccfg));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(cells);
  for (std::size_t cidx = 0; cidx < cells; ++cidx) {
    producers.emplace_back([&, cidx] {
      const fa::FrameJob job = fs::frame_job_of(frames[cidx], noise_var);
      std::vector<fa::FrameTicket> tickets;
      tickets.reserve(frames_per_cell);
      for (std::size_t i = 0; i < frames_per_cell; ++i) {
        tickets.push_back(rt.submit(*handles[cidx], job, deadline_us));
      }
      for (auto& t : tickets) t.wait();  // spans stay valid until terminal
    });
  }
  for (auto& t : producers) t.join();
  rt.drain();

  SweepResult out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.stats = rt.stats();
  return out;
}

}  // namespace

int main() {
  const std::size_t frames_per_cell = fb::env_size("FLEXCORE_FRAMES", 24);
  const std::size_t nsc = 16, nsym = 4, n = 6;
  const double noise_var = ch::noise_var_for_snr_db(14.0);
  Constellation qam(16);

  fb::banner("Multi-cell runtime: cells x queue depth x policy");
  fb::BenchJson json("runtime");

  std::vector<fs::SynthFrame> frames;
  for (std::size_t cidx = 0; cidx < 4; ++cidx) {
    frames.push_back(
        fs::synth_frame(qam, nsc, nsym, n, n, noise_var, 1000 + cidx));
  }
  const std::size_t vectors_per_frame = nsc * nsym;

  std::printf("%-6s %-7s %-17s %-11s %-6s %-6s %-6s %-10s %-10s\n", "cells",
              "queue", "policy", "vec/s", "out", "drop", "expire", "p50 us",
              "p99 us");
  fb::rule();

  bool block_kept_all = true;
  for (const std::size_t cells : {1u, 2u, 4u}) {
    for (const std::size_t queue_depth : {1u, 4u, 16u}) {
      for (const fa::QueuePolicy policy :
           {fa::QueuePolicy::kBlock, fa::QueuePolicy::kDropNewest,
            fa::QueuePolicy::kDeadlineExpire}) {
        // A tight deadline under DeadlineExpire sheds the tail; other
        // policies ignore it.
        const std::uint64_t deadline_us =
            policy == fa::QueuePolicy::kDeadlineExpire ? 20000 : 0;
        const SweepResult r =
            run_sweep(cells, queue_depth, policy, frames_per_cell, frames,
                      noise_var, deadline_us);
        const double vps =
            static_cast<double>(r.stats.frames_out * vectors_per_frame) /
            r.seconds;
        if (policy == fa::QueuePolicy::kBlock &&
            r.stats.frames_out != cells * frames_per_cell) {
          std::fprintf(stderr,
                       "FAIL: Block completed %llu of %zu frames (cells %zu, "
                       "queue %zu)\n",
                       static_cast<unsigned long long>(r.stats.frames_out),
                       cells * frames_per_cell, cells, queue_depth);
          block_kept_all = false;
        }
        std::printf("%-6zu %-7zu %-17s %-11.0f %-6llu %-6llu %-6llu %-10.0f "
                    "%-10.0f\n",
                    cells, queue_depth, fa::to_string(policy), vps,
                    static_cast<unsigned long long>(r.stats.frames_out),
                    static_cast<unsigned long long>(r.stats.frames_dropped),
                    static_cast<unsigned long long>(r.stats.frames_expired),
                    r.stats.latency_p50_us, r.stats.latency_p99_us);
        json.row()
            .field("cells", cells)
            .field("queue_depth", queue_depth)
            .field("policy", fa::to_string(policy))
            .field("frames_per_cell", frames_per_cell)
            .field("vectors_per_sec", vps)
            .field("frames_in", r.stats.frames_in)
            .field("frames_out", r.stats.frames_out)
            .field("frames_dropped", r.stats.frames_dropped)
            .field("frames_expired", r.stats.frames_expired)
            .field("latency_p50_us", r.stats.latency_p50_us)
            .field("latency_p99_us", r.stats.latency_p99_us)
            .field("latency_mean_us", r.stats.latency_mean_us);
        // Full distribution, not just the two quantiles: one field per
        // power-of-two histogram bucket, plus the per-stage breakdown.
        fb::append_latency_buckets(json, r.stats);
        fb::append_stage_latency(json, r.stats);
      }
    }
  }

  std::printf("\nBlock never sheds (out == cells * frames_per_cell at "
              "every depth): %s\n",
              block_kept_all ? "PASS" : "FAIL");

  // With tracing live (FLEXCORE_OBS_TRACE=1), FLEXCORE_TRACE_OUT=<path>
  // exports everything the span rings retained as a Chrome/Perfetto trace.
  if (const char* trace_out = std::getenv("FLEXCORE_TRACE_OUT");
      trace_out && *trace_out) {
    const bool ok = flexcore::obs::export_chrome_trace(trace_out);
    std::printf("\ntrace: %s %s\n", ok ? "wrote" : "FAILED to write",
                trace_out);
  }
  return block_kept_all ? 0 : 1;
}
