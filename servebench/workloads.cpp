// Workload definitions, frame pools with their oracle, and the one-thread
// load generator that drives them through the serving API.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "channel/rng.h"
#include "servebench.h"
#include "shard/sharded_runtime.h"
#include "sim/frame_synth.h"

namespace servebench {

namespace {

using flexcore::channel::noise_var_for_snr_db;
using flexcore::modulation::Constellation;

fa::RuntimeConfig runtime_config(std::size_t threads, std::size_t dispatchers,
                                 fa::QueuePolicy policy) {
  fa::RuntimeConfig rc;
  rc.threads = threads;
  rc.dispatchers = dispatchers;
  rc.queue_capacity = 16;
  rc.policy = policy;
  return rc;
}

std::vector<WorkloadSpec> make_workloads() {
  // Every server runs at most 4 compute threads (the 4 vCPUs the workloads
  // were sized on): 2 spawned pool workers + 2 dispatchers, or for the
  // sharded server 2 shard threads + 2 dispatchers on an inline pool.
  std::vector<WorkloadSpec> out;

  WorkloadSpec fresh;
  fresh.name = "fresh-12x12";
  for (int c = 0; c < 4; ++c) {
    fresh.cells.push_back({.detector = "flexcore-64", .qam = 64, .nr = 12,
                           .nt = 12, .snr_db = 24.0, .refresh = 1});
  }
  fresh.pool_frames = 128;
  fresh.runtime = runtime_config(3, 2, fa::QueuePolicy::kBlock);
  out.push_back(fresh);

  WorkloadSpec coherent;
  coherent.name = "coherent-6x6";
  for (int c = 0; c < 4; ++c) {
    coherent.cells.push_back({.detector = "flexcore-16", .qam = 16, .nr = 6,
                              .nt = 6, .snr_db = 14.0, .refresh = 0,
                              .cell_reuse = true});
  }
  coherent.pool_frames = 512;
  coherent.runtime = runtime_config(3, 2, fa::QueuePolicy::kBlock);
  out.push_back(coherent);

  WorkloadSpec paced;
  paced.name = "paced-mixed";
  paced.cells = {
      {.detector = "flexcore-64:i16", .swap_detector = "flexcore-32:i16",
       .qam = 64, .nr = 12, .nt = 12, .snr_db = 24.0, .refresh = 4,
       .job_reuse = true},
      {.detector = "flexcore-64", .swap_detector = "flexcore-32", .qam = 64,
       .nr = 12, .nt = 12, .snr_db = 24.0, .refresh = 4, .job_reuse = true},
      {.detector = "flexcore-16", .swap_detector = "flexcore-8", .qam = 16,
       .nr = 16, .nt = 4, .snr_db = 8.0, .refresh = 1},
      {.detector = "flexcore-16", .swap_detector = "flexcore-8", .qam = 16,
       .nr = 6, .nt = 6, .snr_db = 14.0, .refresh = 16, .job_reuse = true},
  };
  paced.open_loop = true;
  // Low enough that losing most of the host to other tenants for a while
  // slows frames rather than overloading the server: at 1000 frames/s
  // such a stretch shed a third of the frames and moved p50 tenfold.
  paced.frames_per_sec = 500.0;
  paced.deadline_us = 4000;
  paced.swap_every = 64;
  paced.pool_frames = 256;  // a multiple of 2 * swap_every: wraps onto spec 0
  paced.runtime = runtime_config(3, 2, fa::QueuePolicy::kDeadlineExpire);
  out.push_back(paced);

  WorkloadSpec massive;
  massive.name = "massive-16x4";
  for (int c = 0; c < 4; ++c) {
    massive.cells.push_back({.detector = "flexcore-16", .qam = 16, .nr = 16,
                             .nt = 4, .snr_db = 8.0, .refresh = 1});
  }
  massive.sharded = true;
  massive.shards = 2;
  massive.threads_per_shard = 1;
  massive.pool_frames = 256;
  massive.runtime = runtime_config(1, 2, fa::QueuePolicy::kBlock);
  out.push_back(massive);
  return out;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  // splitmix64 of the pair: independent streams per (seed, cell, frame).
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t count_errors(const std::vector<int>& decided,
                         const std::vector<int>& tx) {
  std::size_t errors = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) errors += decided[i] != tx[i];
  return errors;
}

/// Symbols of `results` that differ from `expected` (vector-major).
std::size_t decision_diffs(
    const std::vector<flexcore::detect::DetectionResult>& results,
    const std::vector<int>& expected) {
  std::size_t diffs = 0, i = 0;
  for (const auto& r : results) {
    for (const int s : r.symbols) {
      diffs += i >= expected.size() || expected[i] != s;
      ++i;
    }
  }
  return diffs + (i < expected.size() ? expected.size() - i : 0);
}

std::vector<int> flatten(
    const std::vector<flexcore::detect::DetectionResult>& results) {
  std::vector<int> out;
  for (const auto& r : results) {
    out.insert(out.end(), r.symbols.begin(), r.symbols.end());
  }
  return out;
}

CellPool build_pool(const WorkloadSpec& w, const CellSpec& cs,
                    std::uint64_t seed) {
  const Constellation qam(cs.qam);
  CellPool pool;
  pool.noise_var = noise_var_for_snr_db(cs.snr_db);
  pool.nsym = w.nsym;
  flexcore::channel::Rng rng(seed);
  for (std::size_t p = 0; p < w.pool_frames; ++p) {
    const bool opens = cs.refresh == 0 ? p == 0 : p % cs.refresh == 0;
    PoolFrame f;
    flexcore::sim::SynthFrame s =
        opens ? flexcore::sim::synth_frame(qam, w.nsc, w.nsym, cs.nr, cs.nt,
                                           pool.noise_var, mix(seed, p))
              : flexcore::sim::synth_frame_over(qam, pool.channels.back(),
                                                w.nsym, pool.noise_var, rng);
    if (opens) pool.channels.push_back(std::move(s.channels));
    f.realization = pool.channels.size() - 1;
    f.ys = std::move(s.ys);
    f.tx = std::move(s.tx);
    f.reuse = cs.job_reuse && !opens;
    f.spec = w.swap_every > 0 && !cs.swap_detector.empty()
                 ? (p / w.swap_every) % 2
                 : 0;
    pool.frames.push_back(std::move(f));
  }

  // The oracle: the same schedule through ONE synchronous pipeline —
  // api::Runtime documents bit-identical results to exactly this.
  fa::PipelineConfig pc;
  pc.detector = cs.detector;
  pc.qam_order = cs.qam;
  pc.threads = 1;
  fa::UplinkPipeline pipe(pc);
  std::size_t spec = 0;
  for (std::size_t p = 0; p < pool.frames.size(); ++p) {
    PoolFrame& f = pool.frames[p];
    if (f.spec != spec) {
      pipe.reconfigure(spec_at(cs, f));
      spec = f.spec;
    }
    fa::FrameJob job = pool.job(p);
    job.reuse_preprocessing = f.reuse || (cs.cell_reuse && p > 0);
    const fa::FrameResult r = pipe.detect_frame(job);
    f.symbols = flatten(r.results);
    f.errors = count_errors(f.symbols, f.tx);
  }
  return pool;
}

/// The server under test: a monolithic Runtime or a ShardedRuntime.
class Server {
 public:
  explicit Server(const WorkloadSpec& w) {
    if (w.sharded) {
      fa::ShardedRuntimeConfig sc;
      sc.shards = w.shards;
      sc.threads_per_shard = w.threads_per_shard;
      sc.runtime = w.runtime;
      sharded_ = std::make_unique<fa::ShardedRuntime>(sc);
    } else {
      mono_ = std::make_unique<fa::Runtime>(w.runtime);
    }
    for (const CellSpec& cs : w.cells) {
      fa::CellConfig cc;
      cc.detector = cs.detector;
      cc.qam_order = cs.qam;
      cc.reuse_preprocessing = cs.cell_reuse;
      cells_.push_back(sharded_ ? &sharded_->open_cell(cc)
                                : &mono_->open_cell(cc));
    }
  }

  fa::FrameTicket submit(std::size_t cell, const fa::FrameJob& job,
                         std::uint64_t deadline_us) {
    return sharded_ ? sharded_->submit(*cells_[cell], job, deadline_us)
                    : mono_->submit(*cells_[cell], job, deadline_us);
  }
  fa::FrameTicket reconfigure(std::size_t cell, const std::string& spec) {
    fa::CellReconfig rc;
    rc.detector = spec;
    return sharded_ ? sharded_->reconfigure(*cells_[cell], rc)
                    : mono_->reconfigure(*cells_[cell], rc);
  }
  void drain() {
    if (sharded_) {
      sharded_->drain();
    } else {
      mono_->drain();
    }
  }
  fa::RuntimeStats stats() const {
    return sharded_ ? sharded_->stats() : mono_->stats();
  }

 private:
  std::unique_ptr<fa::Runtime> mono_;
  std::unique_ptr<fa::ShardedRuntime> sharded_;
  std::vector<fa::Cell*> cells_;
};

using Clock = std::chrono::steady_clock;

Clock::time_point to_time_point(double us) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us)));
}

double stage_sum_us(const fa::RuntimeStats& s, flexcore::obs::Stage st) {
  const fa::LatencyHistogram& h = s.stage(st);
  return h.mean_us() * static_cast<double>(h.count());
}

/// The load generator: ONE thread submits, consumes completions (pushed by
/// the tickets' callbacks) and checks every result against the oracle.
class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& w, std::vector<CellPool>& pools, Server& server,
         const RunOptions& opt, RunResult* res)
      : w_(w), pools_(pools), server_(server), opt_(opt), res_(*res),
        next_pos_(w.cells.size(), 1), spec_(w.cells.size(), 0),
        installed_(w.cells.size(), 0), slots_(kSlots) {
    for (std::size_t i = kSlots; i-- > 0;) free_.push_back(i);
    for (const CellPool& p : pools) checked_.emplace_back(p.frames.size(), false);
    // At most kSlots completions are ever pending: the callbacks' push_back
    // never allocates, so it cannot throw on the runtime's threads.
    events_.reserve(kSlots);
    batch_.reserve(kSlots);
  }

  void run() {
    // The set-up frames' tickets are done, but the runtime books their
    // stage samples after the callbacks return; drain() waits for that, so
    // none of them lands inside the cross-checked delta.
    server_.drain();
    const fa::RuntimeStats before = server_.stats();
    const double start = now_us();
    window_start_ = start + opt_.warmup_s * 1e6;
    window_end_ = window_start_ + opt_.seconds * 1e6;
    if (w_.open_loop) {
      run_open(start);
    } else {
      run_closed();
    }
    for (fa::FrameTicket& t : reconfig_tickets_) {
      if (t.wait() != fa::TicketStatus::kDone) ++res_.other_failed;
    }
    res_.window_s = (t_close_ - t_open_) * 1e-6;
    res_.cpu_s = cpu_close_ - cpu_open_;
    slice_window();
    if (opt_.traced) {
      // Completion callbacks fire before the runtime books the frame's
      // stage samples; drain() returns once it has.
      server_.drain();
      cross_check(before, server_.stats());
    }
  }

 private:
  static constexpr std::size_t kSlots = 1024;
  /// Slice length: at 500 frames/s a slice's p99 has 5 samples above it.
  static constexpr double kSliceUs = 1e6;
  /// Frames whose spans a traced run keeps (the first ones it completes):
  /// enough for every stage of every cell, small enough to validate.
  static constexpr std::size_t kMaxSpanFrames = 20000;

  /// One slice of the window: vectors completed in it, latency of the
  /// frames due in it.
  struct Slice {
    double vectors = 0.0;
    Histogram latency;
  };

  struct InFlight {
    fa::FrameTicket ticket;
    std::size_t cell = 0;
    std::size_t pos = 0;
    double due_us = 0.0;
    double submit_us = 0.0;
    double submitted_us = 0.0;
    std::uint64_t id = 0;
  };

  /// Opens/closes the measured window and samples process CPU time at
  /// each slice boundary as the generator passes it.
  void tick(double t) {
    if (!window_open_ && t >= window_start_) {
      window_open_ = true;
      t_open_ = t;
      cpu_open_ = process_cpu_s();
      marks_.push_back({t_open_, cpu_open_});
    }
    if (window_open_ && !window_closed_ && t >= window_end_) {
      window_closed_ = true;
      t_close_ = t;
      cpu_close_ = process_cpu_s();
      marks_.push_back({t_close_, cpu_close_});
    } else if (window_open_ && !window_closed_ &&
               t >= t_open_ + static_cast<double>(marks_.size()) * kSliceUs) {
      marks_.push_back({t, process_cpu_s()});
    }
  }

  /// Slice of the window a time falls in (times before it: slice 0).
  Slice& slice_at(double t) {
    const double k = window_open_ ? (t - t_open_) / kSliceUs : 0.0;
    const std::size_t i = k > 0.0 ? static_cast<std::size_t>(k) : 0;
    if (slices_.size() <= i) slices_.resize(i + 1);
    return slices_[i];
  }

  /// Throughput, CPU per vector and latency quantiles of every whole
  /// slice of the window (frames by completion / by due time).
  void slice_window() {
    for (std::size_t i = 0; i + 1 < marks_.size() && i < slices_.size(); ++i) {
      const auto [t0, cpu0] = marks_[i];
      const auto [t1, cpu1] = marks_[i + 1];
      const Slice& s = slices_[i];
      if (t1 - t0 < 0.5 * kSliceUs) continue;  // the closing stub
      if (s.vectors == 0.0 || s.latency.count() == 0) continue;
      res_.slice_vps.push_back(s.vectors / ((t1 - t0) * 1e-6));
      res_.slice_cpu_us_per_vector.push_back((cpu1 - cpu0) * 1e6 / s.vectors);
      res_.slice_p50_us.push_back(s.latency.quantile(0.50));
      res_.slice_p99_us.push_back(s.latency.quantile(0.99));
    }
    if (res_.slice_vps.empty() && res_.vectors_ok > 0) {
      // A window shorter than a slice (smoke runs) is one slice.
      const double vectors = static_cast<double>(res_.vectors_ok);
      res_.slice_vps.push_back(vectors / (t_close_ - t_open_) * 1e6);
      res_.slice_cpu_us_per_vector.push_back((cpu_close_ - cpu_open_) * 1e6 /
                                             vectors);
      res_.slice_p50_us.push_back(res_.latency.quantile(0.50));
      res_.slice_p99_us.push_back(res_.latency.quantile(0.99));
    }
  }

  void submit_next(std::size_t cell, double due_us) {
    CellPool& pool = pools_[cell];
    const std::size_t pos = next_pos_[cell];
    next_pos_[cell] = (pos + 1) % pool.frames.size();
    const PoolFrame& f = pool.frames[pos];
    if (f.spec != spec_[cell]) {
      reconfig_tickets_.push_back(
          server_.reconfigure(cell, spec_at(w_.cells[cell], f)));
      spec_[cell] = f.spec;
      ++res_.reconfigs;
    }
    if (free_.empty()) throw std::runtime_error("servebench: slot ring full");
    const std::size_t slot = free_.back();
    free_.pop_back();
    InFlight& fl = slots_[slot];
    fl.cell = cell;
    fl.pos = pos;
    fl.due_us = due_us;
    fl.id = ++frames_submitted_;
    fl.submit_us = now_us();
    std::uint64_t deadline = 0;
    if (w_.deadline_us > 0) {
      // Armed from the due time, not from the (possibly late) submit.
      const double left =
          due_us + static_cast<double>(w_.deadline_us) - fl.submit_us;
      deadline = left >= 1.0 ? static_cast<std::uint64_t>(left) : 1;
    }
    fl.ticket = server_.submit(cell, pool.job(pos), deadline);
    fl.submitted_us = now_us();
    ++in_flight_;
    fl.ticket.on_complete([this, slot](fa::TicketStatus,
                                       const fa::FrameResult*) {
      const double t = now_us();
      // Notify under the lock: once the generator sees the event it may
      // finish the run, and nothing of it may be touched after that.
      std::lock_guard<std::mutex> lock(mu_);
      events_.push_back({slot, t});
      cv_.notify_one();
    });
  }

  /// Waits for completions (until `until_us` when > 0) and processes them.
  void pump(double until_us) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (until_us > 0.0) {
        cv_.wait_until(lock, to_time_point(until_us),
                       [&] { return !events_.empty(); });
      } else {
        cv_.wait(lock, [&] { return !events_.empty(); });
      }
      batch_.swap(events_);
    }
    for (const auto& [slot, t_done] : batch_) complete(slot, t_done);
    batch_.clear();
  }

  void run_closed() {
    for (std::size_t c = 0; c < w_.cells.size(); ++c) {
      for (std::size_t k = 0; k < w_.outstanding; ++k) {
        const double t = now_us();
        tick(t);
        submit_next(c, t);
      }
    }
    while (in_flight_ > 0) {
      pump(0.0);
      tick(now_us());
      // Refill every slot freed by this batch while the window runs.
      for (const auto& [cell, freed_at] : freed_) {
        const double t = now_us();
        tick(t);
        if (window_closed_) break;
        if (window_open_) res_.gen_late.add(t - freed_at);
        submit_next(cell, t);
      }
      freed_.clear();
    }
  }

  void run_open(double start) {
    // Timed waits of this thread end at the due time, not up to 50 us
    // after it (the default timer slack).
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const std::size_t n = w_.cells.size();
    const double period_us = 1e6 * static_cast<double>(n) / w_.frames_per_sec;
    std::vector<double> due(n);
    for (std::size_t c = 0; c < n; ++c) {
      due[c] = start + period_us * static_cast<double>(c) /
                           static_cast<double>(n);
    }
    for (;;) {
      const std::size_t c = static_cast<std::size_t>(
          std::min_element(due.begin(), due.end()) - due.begin());
      if (due[c] >= window_end_) break;
      double t = now_us();
      while (t < due[c]) {
        if (in_flight_ > 0) {
          pump(due[c]);
        } else {
          std::this_thread::sleep_until(to_time_point(due[c]));
        }
        t = now_us();
      }
      tick(t);
      if (due[c] >= window_start_) res_.gen_late.add(t - due[c]);
      submit_next(c, due[c]);
      due[c] += period_us;
    }
    // Hold the window open to its planned end so CPU and wall time cover
    // the same span, then collect the stragglers.
    for (double t = now_us(); t < window_end_; t = now_us()) {
      if (in_flight_ > 0) {
        pump(window_end_);
      } else {
        std::this_thread::sleep_until(to_time_point(window_end_));
      }
    }
    tick(now_us());
    while (in_flight_ > 0) pump(0.0);
  }

  void complete(std::size_t slot, double t_done) {
    InFlight& fl = slots_[slot];
    const CellPool& pool = pools_[fl.cell];
    const PoolFrame& f = pool.frames[fl.pos];
    const bool counted = fl.due_us >= window_start_ && fl.due_us < window_end_;
    // Callbacks run before the ticket publishes its status: wait() returns
    // once it has.
    const fa::TicketStatus status = fl.ticket.wait();
    const fa::FrameResult* r = fl.ticket.try_get();
    bool ok = false;
    FrameSpan span;
    span.status = fa::to_string(status);
    if (status == fa::TicketStatus::kDone && r != nullptr) {
      bool stale = false;
      if (r->channels_installed > 0) {
        installed_[fl.cell] = f.realization;
      } else {
        stale = installed_[fl.cell] != f.realization;
      }
      std::size_t errors = f.errors;
      if (stale || w_.sharded) {
        // A stale frame is not held to the oracle (it is a failure); the
        // sharded server is held to it statistically (gate in main).
        errors = count_errors(flatten(r->results), f.tx);
        ok = !stale;
        if (ok && w_.sharded && !checked_[fl.cell][fl.pos]) {
          // Each distinct frame once: the schedule repeats, and a frame
          // that decides differently must weigh the same in a short run
          // and a long one.
          checked_[fl.cell][fl.pos] = true;
          res_.distinct_symbols += f.tx.size();
          res_.decision_diffs += decision_diffs(r->results, f.symbols);
          res_.distinct_errors += errors;
          res_.distinct_oracle_errors += f.errors;
        }
      } else if (decision_diffs(r->results, f.symbols) != 0) {
        ++res_.mismatched;  // fatal whether or not it was in the window
      } else {
        ok = true;
      }
      if (stale && counted) ++res_.stale;
      const double stages_us =
          (r->preprocess_seconds + r->detect_seconds + r->reconstruct_seconds) *
          1e6;
      if (counted) {
        res_.symbols += f.tx.size();
        res_.symbol_errors += errors;
        res_.oracle_errors += f.errors;
        ++res_.done_counted;
        res_.submit_call_us += fl.submitted_us - fl.submit_us;
        res_.overhead_us += t_done - fl.submit_us - stages_us;
      }
      ++done_frames_;
      my_pre_us_ += r->preprocess_seconds * 1e6;
      my_grid_us_ += r->detect_seconds * 1e6;
      my_rec_us_ += r->reconstruct_seconds * 1e6;
      my_latency_us_ += t_done - fl.submit_us;
      span.pre_us = r->preprocess_seconds * 1e6;
      span.grid_us = r->detect_seconds * 1e6;
      span.rec_us = r->reconstruct_seconds * 1e6;
      if (stale) span.status = "stale";
      if (ok && t_done >= t_open_ && window_open_ &&
          (!window_closed_ || t_done <= t_close_)) {
        res_.vectors_ok += r->results.size();
        slice_at(t_done).vectors += static_cast<double>(r->results.size());
      }
    } else if (status == fa::TicketStatus::kDropped ||
               status == fa::TicketStatus::kExpired) {
      if (counted) ++res_.shed;
    } else {
      ++res_.other_failed;  // kFailed / kQuarantined: fatal
    }
    if (counted) {
      ++res_.attempted;
      if (ok) ++res_.ok;
      const double deadline = static_cast<double>(w_.deadline_us);
      double latency = t_done - fl.due_us;
      if (w_.deadline_us > 0 && (!ok || latency > deadline)) {
        ++res_.deadline_missed;
        // A frame that was shed or came back wrong missed its deadline,
        // whenever the runtime gave up on it.
        if (!ok) latency = std::max(latency, deadline);
      }
      res_.latency.add(latency);
      slice_at(fl.due_us).latency.add(latency);
    }
    if (opt_.traced && res_.spans.size() < kMaxSpanFrames) {
      span.frame = fl.id;
      span.cell = fl.cell;
      span.due_us = fl.due_us;
      span.submit_us = fl.submit_us;
      span.submitted_us = fl.submitted_us;
      span.done_us = t_done;
      res_.spans.push_back(span);
    }
    fl.ticket = fa::FrameTicket();
    free_.push_back(slot);
    --in_flight_;
    if (!w_.open_loop) freed_.push_back({fl.cell, t_done});
  }

  void cross_check(const fa::RuntimeStats& before,
                   const fa::RuntimeStats& after) {
    using flexcore::obs::Stage;
    const double n =
        static_cast<double>(after.latency_count - before.latency_count);
    auto& sc = res_.stage_check;
    sc["frames_spans"] = static_cast<double>(done_frames_);
    sc["frames_runtime"] = n;
    if (n != static_cast<double>(done_frames_) || n == 0.0) {
      res_.stage_check_error = "kDone count differs from RuntimeStats";
      return;
    }
    const struct {
      Stage stage;
      const char* name;
      double mine;
    } stages[] = {{Stage::kPreprocess, "preprocess", my_pre_us_},
                  {Stage::kPathGrid, "path-grid", my_grid_us_},
                  {Stage::kReconstruct, "reconstruct", my_rec_us_}};
    for (const auto& s : stages) {
      const double rt = stage_sum_us(after, s.stage) -
                        stage_sum_us(before, s.stage);
      sc[std::string(s.name) + "_mean_us_spans"] = s.mine / n;
      sc[std::string(s.name) + "_mean_us_runtime"] = rt / n;
      if (std::abs(rt - s.mine) > 1e-6 * std::max(1.0, s.mine) + 1e-3 * n) {
        res_.stage_check_error += std::string(s.name) + " sum differs; ";
      }
    }
    // Whole-frame latency: the benchmark's span opens before submit() and
    // closes in the completion callback, so it brackets the runtime's.  The
    // sharded server's partial QRs run inside submit(), before the inner
    // runtime's clock starts; they are booked as their own stage.
    double rt_complete = stage_sum_us(after, Stage::kComplete) -
                         stage_sum_us(before, Stage::kComplete);
    if (w_.sharded) {
      const double shard = stage_sum_us(after, Stage::kShardPartialQr) -
                           stage_sum_us(before, Stage::kShardPartialQr);
      sc["shard_mean_us_runtime"] = shard / n;
      rt_complete += shard;
    }
    const double mine = my_latency_us_ / n, rt = rt_complete / n;
    sc["complete_mean_us_spans"] = mine;
    sc["complete_mean_us_runtime"] = rt;
    if (rt > mine + 1.0 || mine > 1.5 * rt + 500.0) {
      res_.stage_check_error += "complete latency outside bracket; ";
    }
  }

  const WorkloadSpec& w_;
  std::vector<CellPool>& pools_;
  Server& server_;
  const RunOptions& opt_;
  RunResult& res_;
  std::vector<std::size_t> next_pos_;
  std::vector<std::size_t> spec_;
  std::vector<std::size_t> installed_;  ///< realization preprocessed last
  std::vector<std::vector<bool>> checked_;  ///< sharded: frame checked once
  std::vector<InFlight> slots_;
  std::vector<std::size_t> free_;
  std::vector<std::pair<std::size_t, double>> freed_;  ///< (cell, when)
  std::vector<fa::FrameTicket> reconfig_tickets_;
  std::size_t in_flight_ = 0;
  std::uint64_t frames_submitted_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::size_t, double>> events_;  ///< guarded by mu_
  std::vector<std::pair<std::size_t, double>> batch_;   ///< being processed

  double window_start_ = 0.0, window_end_ = 0.0;
  bool window_open_ = false, window_closed_ = false;
  double t_open_ = 0.0, t_close_ = 0.0, cpu_open_ = 0.0, cpu_close_ = 0.0;
  std::vector<std::pair<double, double>> marks_;  ///< (wall us, CPU s)
  std::vector<Slice> slices_;

  std::uint64_t done_frames_ = 0;
  double my_pre_us_ = 0.0, my_grid_us_ = 0.0, my_rec_us_ = 0.0;
  double my_latency_us_ = 0.0;
};

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t compute_threads(const WorkloadSpec& w) {
  const std::size_t spawned = w.runtime.threads > 0 ? w.runtime.threads - 1 : 0;
  const std::size_t shard = w.sharded ? w.shards * w.threads_per_shard : 0;
  return spawned + w.runtime.dispatchers + shard;
}

fa::FrameJob CellPool::job(std::size_t position) const {
  const PoolFrame& f = frames[position];
  fa::FrameJob j;
  j.channels = channels[f.realization];
  j.ys = f.ys;
  j.vectors_per_channel = nsym;
  j.noise_var = noise_var;
  j.reuse_preprocessing = f.reuse;
  return j;
}

const std::string& spec_at(const CellSpec& cell, const PoolFrame& frame) {
  return frame.spec == 0 ? cell.detector : cell.swap_detector;
}

std::vector<CellPool> build_pools(const WorkloadSpec& w, std::uint64_t seed) {
  std::vector<CellPool> pools(w.cells.size());
  std::vector<std::thread> threads;
  std::vector<std::string> errors(w.cells.size());
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        pools[c] = build_pool(w, w.cells[c], mix(seed, 1000 + c));
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("oracle: " + e);
  }
  return pools;
}

RunResult run_workload(const WorkloadSpec& w, std::vector<CellPool>& pools,
                       const RunOptions& opt) {
  RunResult res;
  if (opt.inject_mismatch) {
    // Flip one oracle decision of a frame the run is sure to check.
    std::vector<int>& s = pools[0].frames[1].symbols;
    s[0] = s[0] == 0 ? 1 : 0;
  }

  // Set-up: runtime construction, every open_cell, and each cell's first
  // frame to completion, timed in process CPU and in wall time.  Half the
  // repetitions run before the measured window and half after it; the last
  // one before the window serves the run.
  std::vector<double> setups_cpu, setups_wall;
  auto set_up = [&] {
    const double t0 = now_us();
    const double cpu0 = process_cpu_s();
    auto server = std::make_unique<Server>(w);
    std::vector<fa::FrameTicket> first;
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      first.push_back(server->submit(c, pools[c].job(0), 0));
    }
    for (fa::FrameTicket& t : first) t.wait();
    setups_wall.push_back((now_us() - t0) * 1e-6);
    setups_cpu.push_back(process_cpu_s() - cpu0);
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const fa::FrameResult* r = first[c].try_get();
      if (r == nullptr) {
        ++res.other_failed;
      } else if (!w.sharded &&
                 decision_diffs(r->results, pools[c].frames[0].symbols) != 0) {
        ++res.mismatched;
      }
    }
    return server;
  };
  const std::size_t before = std::max<std::size_t>(1, (opt.setup_reps + 1) / 2);
  std::unique_ptr<Server> server;
  for (std::size_t rep = 0; rep < before; ++rep) {
    server.reset();
    server = set_up();
  }
  {
    LoadGenerator gen(w, pools, *server, opt, &res);
    gen.run();
  }
  server.reset();
  for (std::size_t rep = before; rep < opt.setup_reps; ++rep) set_up();
  res.setup_s = quantile(setups_cpu, 0.5);
  res.setup_wall_s = quantile(setups_wall, 0.5);
  return res;
}

}  // namespace servebench
