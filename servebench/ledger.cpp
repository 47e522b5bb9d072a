// Per-layer ledger: every layer's public entry points timed from the
// benchmark's side, on the workload's own frames.  Nothing here reaches
// inside src/ — each number is a call into a public header, so the ledger
// keeps meaning the same thing when the layers underneath change.
//
//   linalg    sorted_qr_wubben                 -> linalg.qr_us
//   core      find_most_promising_paths        -> core.path_select_us
//             FlexCoreDetector::set_channel    -> core.set_channel_us
//   detect    PathPlan(I16)::compile_flexcore  -> detect.plan_compile(_i16)_us
//             FlexCoreDetector::path_metric_block, per path -> detect.path(_i16)_ns
//   parallel  ThreadPool::parallel_for, tiny chunks -> parallel.fanout_{hot,cold}_us
//   api       UplinkPipeline::detect_frame t=1 / t=nproc and its FrameResult
//             Runtime::reconfigure + the first frame after it
//   shard     compute_partial / stack_partials, ShardedRuntime::submit
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "api/detector_registry.h"
#include "api/uplink_pipeline.h"
#include "core/flexcore_detector.h"
#include "core/preprocessing.h"
#include "detect/path_kernels.h"
#include "linalg/qr.h"
#include "parallel/thread_pool.h"
#include "servebench.h"
#include "shard/partial_qr.h"
#include "shard/sharded_runtime.h"

namespace servebench {

namespace {

namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fl = flexcore::linalg;
using flexcore::modulation::Constellation;

/// Median over batches of the mean time per call of `fn`, in us: batches
/// of `batch` calls repeat until `slice_s` has passed (at least 3).
template <typename F>
double per_call_us(F&& fn, std::size_t batch, double slice_s) {
  std::vector<double> samples;
  const double end = now_us() + slice_s * 1e6;
  while (samples.size() < 3 || now_us() < end) {
    const double t0 = now_us();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    samples.push_back((now_us() - t0) / static_cast<double>(batch));
  }
  return quantile(samples, 0.5);
}

std::string base_spec(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

std::unique_ptr<fc::FlexCoreDetector> make_flexcore(const std::string& spec,
                                                    const Constellation& c) {
  fa::DetectorConfig dc;
  dc.constellation = &c;
  return fa::make_detector_as<fc::FlexCoreDetector>(spec, dc);
}

/// Cells of distinct shape and spec: identical cells are measured once.
std::vector<std::size_t> distinct_cells(const WorkloadSpec& w) {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const CellSpec& a = w.cells[c];
    bool seen = false;
    for (const std::size_t o : out) {
      const CellSpec& b = w.cells[o];
      seen |= a.detector == b.detector && a.qam == b.qam && a.nr == b.nr &&
              a.nt == b.nt && a.snr_db == b.snr_db;
    }
    if (!seen) out.push_back(c);
  }
  return out;
}

/// Up to `max_channels` distinct channels of a cell's pool.
std::vector<const CMat*> sample_channels(const CellPool& pool,
                                         std::size_t max_channels) {
  std::vector<const CMat*> out;
  for (const auto& real : pool.channels) {
    for (const CMat& h : real) {
      if (out.size() == max_channels) return out;
      out.push_back(&h);
    }
  }
  return out;
}

/// Channel-level layers of one cell: QR, path selection, set_channel,
/// plan compiles, per-path kernels and the shard partial QR.
void channel_layers(const CellSpec& cs, const CellPool& pool, double slice_s,
                    std::map<std::string, double>* sums) {
  std::map<std::string, double>& acc = *sums;
  const Constellation qam(cs.qam);
  const double nv = pool.noise_var;
  const std::vector<const CMat*> hs = sample_channels(pool, 64);
  const std::size_t n = hs.size();

  auto det = make_flexcore(cs.detector, qam);
  auto det64 = make_flexcore(base_spec(cs.detector) + ":fp64", qam);
  auto det16 = make_flexcore(base_spec(cs.detector) + ":i16", qam);
  const fc::FlexCoreConfig& fcfg = det64->config();

  std::vector<fl::QrResult> qrs(n);
  std::vector<fc::PreprocessingResult> pre(n);
  fc::PreprocessingConfig pcfg;
  pcfg.num_paths = fcfg.num_pes;
  pcfg.stop_threshold =
      fcfg.adaptive_threshold > 0.0 ? fcfg.adaptive_threshold : 1.0;
  pcfg.pe_model = fcfg.pe_model;
  pcfg.candidate_list_cap = fcfg.candidate_list_cap;
  pcfg.batch_expand = fcfg.batch_expand;

  auto time = [&](const char* key, auto&& fn, std::size_t batch) {
    acc[key] += per_call_us(fn, batch, slice_s);
  };
  time("linalg.qr_us",
       [&](std::size_t i) { qrs[i] = fl::sorted_qr_wubben(*hs[i]); }, n);
  time("core.path_select_us",
       [&](std::size_t i) {
         pre[i] = fc::find_most_promising_paths(qrs[i].R, nv, qam, pcfg);
       },
       n);
  time("core.set_channel_us",
       [&](std::size_t i) { det->set_channel(*hs[i], nv); }, n);
  const bool exact = fcfg.ordering == fc::OrderingMode::kExactSort;
  fd::PathPlan plan64;
  time("detect.plan_compile_us",
       [&](std::size_t i) {
         plan64.compile_flexcore(qrs[i].R, pre[i].paths, qam, det64->lut(),
                                 exact, fcfg.invalid_policy);
       },
       n);
  fd::PathPlanI16 plan16;
  time("detect.plan_compile_i16_us",
       [&](std::size_t i) {
         plan16.compile_flexcore(qrs[i].R, pre[i].paths, qam, det16->lut(),
                                 exact, fcfg.invalid_policy);
       },
       n);

  // Per-path kernel cost: every path of one channel against its rotated
  // received vectors, both tiers.
  for (auto [d, key] : {std::pair{det64.get(), "detect.path_ns"},
                        std::pair{det16.get(), "detect.path_i16_ns"}}) {
    d->set_channel(*hs[0], nv);
    const std::size_t paths = d->active_paths();
    std::vector<CVec> ybars;
    for (std::size_t t = 0; t < pool.nsym; ++t) {
      ybars.push_back(d->rotate(pool.frames[0].ys[t]));
    }
    std::vector<double> metrics(paths);
    const double us = per_call_us(
        [&](std::size_t i) {
          d->path_metric_block(ybars[i % ybars.size()], 0, paths,
                               metrics.data());
        },
        64, slice_s);
    acc[key] += us * 1e3 / static_cast<double>(std::max<std::size_t>(1, paths));
  }

  // Decentralized preprocessing: C = 2 clusters over this cell's array.
  const auto plan = flexcore::shard::plan_shards(cs.nr, 2);
  std::vector<std::vector<flexcore::shard::PartialQr>> parts(n);
  time("shard.partial_qr_us",
       [&](std::size_t i) {
         parts[i].clear();
         for (const auto& rr : plan) {
           parts[i].push_back(flexcore::shard::compute_partial(
               hs[i]->row_range(rr.begin, rr.count)));
         }
       },
       n);
  time("shard.merge_us",
       [&](std::size_t i) { (void)flexcore::shard::stack_partials(parts[i]); },
       n);
}

/// Frame-level layer: UplinkPipeline::detect_frame over the cell's own
/// schedule (reuse flags and path-budget swaps as the traffic has them).
struct FrameReplay {
  double mean_us = 0.0;
  double pre_s = 0.0, total_s = 0.0;
  std::size_t frames = 0, reuse_hits = 0, vectors = 0, sic = 0;
};

FrameReplay replay_frames(const CellSpec& cs, const CellPool& pool,
                          std::size_t threads, std::size_t frames) {
  fa::PipelineConfig pc;
  pc.detector = cs.detector;
  pc.qam_order = cs.qam;
  pc.threads = threads;
  fa::UplinkPipeline pipe(pc);
  FrameReplay out;
  std::size_t spec = 0;
  fa::FrameResult r;
  double total_us = 0.0;
  for (std::size_t p = 0; p < std::min(frames, pool.frames.size()); ++p) {
    const PoolFrame& f = pool.frames[p];
    if (f.spec != spec) {
      pipe.reconfigure(spec_at(cs, f));
      spec = f.spec;
    }
    fa::FrameJob job = pool.job(p);
    job.reuse_preprocessing = f.reuse || (cs.cell_reuse && p > 0);
    const double t0 = now_us();
    pipe.detect_frame(job, &r);
    total_us += now_us() - t0;
    ++out.frames;
    out.reuse_hits += r.channels_installed == 0;
    out.vectors += r.results.size();
    out.sic += r.sic_fallbacks;
    out.pre_s += r.preprocess_seconds;
    out.total_s += r.preprocess_seconds + r.detect_seconds + r.reconstruct_seconds;
  }
  out.mean_us = total_us / static_cast<double>(std::max<std::size_t>(1, out.frames));
  return out;
}

/// One fork-join of 24 one-iteration chunks, in us.
double fanout_us(flexcore::parallel::ThreadPool& pool) {
  std::atomic<std::size_t> sink{0};
  const double t0 = now_us();
  pool.parallel_for(
      24, [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); },
      1);
  return now_us() - t0;
}

}  // namespace

std::map<std::string, double> layer_ledger(const WorkloadSpec& w,
                                           const std::vector<CellPool>& pools,
                                           double budget_s) {
  const std::vector<std::size_t> cells = distinct_cells(w);
  const double k = static_cast<double>(cells.size());
  std::map<std::string, double> out;
  for (const std::size_t c : cells) {
    channel_layers(w.cells[c], pools[c], budget_s * 0.5 / (9.0 * k), &out);
  }
  for (auto& [key, sum] : out) sum /= k;

  // detect_frame alone, on one thread and on every hardware thread.
  const std::size_t tn = std::max(1u, std::thread::hardware_concurrency());
  FrameReplay many;  // the t = nproc replays, summed over cells
  double t1_us = 0.0, tn_us = 0.0;
  for (const std::size_t c : cells) {
    const FrameReplay a = replay_frames(w.cells[c], pools[c], 1, 32);
    const FrameReplay b = replay_frames(w.cells[c], pools[c], tn, 32);
    t1_us += a.mean_us;
    tn_us += b.mean_us;
    many.pre_s += b.pre_s;
    many.total_s += b.total_s;
    many.frames += b.frames;
    many.reuse_hits += b.reuse_hits;
    many.vectors += b.vectors;
    many.sic += b.sic;
  }
  out["api.detect_frame_t1_us"] = t1_us / k;
  out["api.detect_frame_tn_us"] = tn_us / k;
  out["api.frame_scaling"] = t1_us / tn_us;
  out["api.preprocess_share"] = many.pre_s / many.total_s;
  out["api.reuse_hit_ratio"] = static_cast<double>(many.reuse_hits) /
                               static_cast<double>(many.frames);
  out["api.sic_fallback_ratio"] =
      static_cast<double>(many.sic) / static_cast<double>(many.vectors);

  // Pool fan-out, on a pool sized like the workload's runtime pool.
  {
    flexcore::parallel::ThreadPool pool(std::max<std::size_t>(1, w.runtime.threads));
    std::vector<double> hot, cold;
    for (int i = 0; i < 20; ++i) fanout_us(pool);
    for (int i = 0; i < 200; ++i) hot.push_back(fanout_us(pool));
    for (int i = 0; i < 30; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      cold.push_back(fanout_us(pool));
    }
    out["parallel.fanout_hot_us"] = quantile(hot, 0.5);
    out["parallel.fanout_cold_us"] = quantile(cold, 0.5);
  }

  // Runtime::reconfigure (the call builds the new detector) and the first
  // frame after the swap, which re-preprocesses every subcarrier.
  {
    fa::Runtime rt(w.runtime);
    std::vector<fa::Cell*> handles;
    for (const std::size_t c : cells) {
      fa::CellConfig cc;
      cc.detector = w.cells[c].detector;
      cc.qam_order = w.cells[c].qam;
      handles.push_back(&rt.open_cell(cc));
      rt.submit(*handles.back(), pools[c].job(0)).wait();
    }
    std::vector<double> rc_us, post_us;
    for (std::size_t rep = 0; rep < 8; ++rep) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec& cs = w.cells[cells[i]];
        fa::CellReconfig rc;
        rc.detector = rep % 2 == 0 && !cs.swap_detector.empty()
                          ? cs.swap_detector
                          : cs.detector;
        double t0 = now_us();
        fa::FrameTicket swap = rt.reconfigure(*handles[i], rc);
        rc_us.push_back(now_us() - t0);
        const CellPool& pool = pools[cells[i]];
        t0 = now_us();
        rt.submit(*handles[i], pool.job(1 + rep % (pool.frames.size() - 1)))
            .wait();
        post_us.push_back(now_us() - t0);
        swap.wait();
      }
    }
    out["api.reconfigure_us"] = mean(rc_us);
    out["api.post_swap_frame_us"] = mean(post_us);
  }

  // ShardedRuntime::submit runs the C = 2 partial QRs synchronously; the
  // sharded server's thread budget (2 shard threads + 2 dispatchers).
  {
    fa::ShardedRuntimeConfig sc;
    sc.shards = 2;
    sc.threads_per_shard = 1;
    sc.runtime = w.runtime;
    sc.runtime.threads = 1;
    sc.runtime.dispatchers = 2;
    fa::ShardedRuntime srt(sc);
    std::vector<double> submit_us;
    for (const std::size_t c : cells) {
      fa::CellConfig cc;
      cc.detector = w.cells[c].detector;
      cc.qam_order = w.cells[c].qam;
      fa::Cell& cell = srt.open_cell(cc);
      const CellPool& pool = pools[c];
      for (std::size_t p = 0; p < std::min<std::size_t>(32, pool.frames.size());
           ++p) {
        fa::FrameJob job = pool.job(p);
        job.reuse_preprocessing = false;
        const double t0 = now_us();
        fa::FrameTicket t = srt.submit(cell, job);
        if (p > 0) submit_us.push_back(now_us() - t0);
        t.wait();
      }
    }
    out["shard.submit_us"] = mean(submit_us);
  }
  return out;
}

}  // namespace servebench
