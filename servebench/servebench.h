// Serving benchmark: shared declarations.
//
// One command drives synthetic uplink traffic (sim::synth_frame*) through
// the public serving API — api::Runtime, and api::ShardedRuntime for the
// massive-MIMO workload — checks every detected frame against a
// synchronous UplinkPipeline::detect_frame oracle, and reports end-to-end
// metrics.  A traced run additionally times each layer's public functions
// from here (ledger.cpp), outside the library.  NOTES.md has the metric
// definitions and the known defects the benchmark counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "linalg/matrix.h"

namespace servebench {

namespace fa = flexcore::api;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;

/// One cell of a workload.
struct CellSpec {
  std::string detector;       ///< registry spec the cell opens with
  std::string swap_detector;  ///< alternate spec of the periodic swap
  int qam = 16;
  std::size_t nr = 0;  ///< receive antennas
  std::size_t nt = 0;  ///< users
  double snr_db = 0.0;
  /// Frames per channel realization (0 = one static channel forever).
  std::size_t refresh = 1;
  /// Coherence reuse signalled per frame (FrameJob::reuse_preprocessing)
  /// on every frame of a realization but its first.
  bool job_reuse = false;
  bool cell_reuse = false;  ///< CellConfig::reuse_preprocessing
};

struct WorkloadSpec {
  std::string name;
  std::vector<CellSpec> cells;
  bool open_loop = false;
  bool sharded = false;
  std::size_t outstanding = 2;    ///< closed loop: frames in flight per cell
  double frames_per_sec = 0.0;    ///< open loop: offered frames/s, all cells
  std::uint64_t deadline_us = 0;  ///< open loop: deadline after the due time
  std::size_t swap_every = 0;     ///< frames between reconfigures (0 = none)
  std::size_t nsc = 16;           ///< subcarriers per frame
  std::size_t nsym = 4;           ///< OFDM symbols per frame
  std::size_t pool_frames = 256;  ///< distinct frames per cell (cycled)
  fa::RuntimeConfig runtime;      ///< the monolithic / inner runtime
  std::size_t shards = 1;         ///< antenna clusters (sharded only)
  std::size_t threads_per_shard = 1;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Compute threads a workload's server runs: spawned pool workers plus
/// dispatchers plus shard threads (the submitting thread excluded).
std::size_t compute_threads(const WorkloadSpec& w);

/// One distinct frame of a cell's cyclic schedule plus its oracle verdict.
struct PoolFrame {
  std::size_t realization = 0;  ///< index into CellPool::channels
  std::vector<CVec> ys;
  std::vector<int> tx;          ///< ground truth, vector-major
  bool reuse = false;           ///< FrameJob::reuse_preprocessing
  std::size_t spec = 0;         ///< 0 = detector, 1 = swap_detector
  std::vector<int> symbols;     ///< oracle hard decisions, vector-major
  std::size_t errors = 0;       ///< oracle symbol errors against tx
};

struct CellPool {
  std::vector<std::vector<CMat>> channels;  ///< per realization
  std::vector<PoolFrame> frames;
  double noise_var = 1.0;
  std::size_t nsym = 0;
  fa::FrameJob job(std::size_t position) const;
};

/// Synthesizes every cell's schedule from `seed` and runs the oracle over
/// it (one synchronous pipeline per cell, the cells in parallel).
std::vector<CellPool> build_pools(const WorkloadSpec& w, std::uint64_t seed);

/// Spec of `cell` at schedule position `position`.
const std::string& spec_at(const CellSpec& cell, const PoolFrame& frame);

/// Latency histogram of fixed size, so the benchmark's memory does not grow
/// with the frames a run completes: 64 log-spaced buckets per octave from
/// 1/16 us to 2^28 us (about 1% wide); quantiles interpolate inside the
/// bucket.
class Histogram {
 public:
  void add(double us);
  void merge(const Histogram& other);
  double quantile(double q) const;
  std::uint64_t count() const { return count_; }

 private:
  static constexpr int kPerOctave = 64;
  static constexpr int kMinLog2 = -4;
  static constexpr int kBuckets = 32 * kPerOctave;
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Benchmark-side span of one frame (traced runs only).
struct FrameSpan {
  std::uint64_t frame = 0;
  std::size_t cell = 0;
  double due_us = 0.0;  ///< == submit_us on the closed loop
  double submit_us = 0.0;
  double submitted_us = 0.0;  ///< submit() returned
  double done_us = 0.0;
  double pre_us = 0.0, grid_us = 0.0, rec_us = 0.0;
  const char* status = "done";
};

/// Outcome of one measured run of a workload.
struct RunResult {
  /// Set-up cost: median over the repetitions of process CPU seconds, and
  /// of wall seconds (NOTES.md says why the metric is the former).
  double setup_s = 0.0;
  double setup_wall_s = 0.0;
  double window_s = 0.0;
  double cpu_s = 0.0;              ///< process CPU over the window
  /// The window cut into 1 s slices: correct vectors/s, CPU us per vector
  /// and frame latency quantiles of each.
  std::vector<double> slice_vps;
  std::vector<double> slice_cpu_us_per_vector;
  std::vector<double> slice_p50_us;  ///< latency quantiles per slice
  std::vector<double> slice_p99_us;
  std::uint64_t attempted = 0;     ///< frames due inside the window
  std::uint64_t ok = 0;            ///< ... completed kDone and correct
  std::uint64_t vectors_ok = 0;
  std::uint64_t shed = 0;          ///< dropped + expired
  std::uint64_t stale = 0;         ///< stale coherence reuse (NOTES.md)
  std::uint64_t deadline_missed = 0;
  std::uint64_t mismatched = 0;    ///< oracle disagreements: fatal
  std::uint64_t other_failed = 0;  ///< kFailed / kQuarantined: fatal
  std::uint64_t symbols = 0;
  std::uint64_t symbol_errors = 0;
  std::uint64_t oracle_errors = 0;   ///< the oracle on the same frames
  /// Sharded server only, over each distinct schedule frame once (the
  /// schedule repeats; see sharded_tolerance in serve_bench.cpp).
  std::uint64_t distinct_symbols = 0;
  std::uint64_t decision_diffs = 0;  ///< symbols != oracle
  std::uint64_t distinct_errors = 0;
  std::uint64_t distinct_oracle_errors = 0;
  std::uint64_t reconfigs = 0;
  Histogram latency;   ///< every attempted frame (NOTES.md)
  Histogram gen_late;  ///< how late the generator submitted
  std::uint64_t done_counted = 0;  ///< kDone frames due inside the window
  double submit_call_us = 0.0;     ///< ... their submit() calls, summed
  double overhead_us = 0.0;  ///< ... latency minus FrameResult stages, summed
  std::vector<FrameSpan> spans;
  /// Cross-check of the spans against RuntimeStats::stage_latency; empty
  /// when it passed (or the run was not traced).
  std::string stage_check_error;
  std::map<std::string, double> stage_check;  ///< reported deltas
  std::uint64_t frame_samples() const { return latency.count(); }
};

struct RunOptions {
  double seconds = 10.0;
  double warmup_s = 0.5;
  std::size_t setup_reps = 15;
  bool traced = false;
  /// Self-test of the gate: corrupt one oracle verdict before the run.
  bool inject_mismatch = false;
};

RunResult run_workload(const WorkloadSpec& w, std::vector<CellPool>& pools,
                       const RunOptions& opt);

/// Per-layer ledger: each layer's public functions timed on the
/// workload's own frames (see NOTES.md for the list).
std::map<std::string, double> layer_ledger(const WorkloadSpec& w,
                                           const std::vector<CellPool>& pools,
                                           double budget_s);

// ---- host.cpp ------------------------------------------------------------

double now_us();
double process_cpu_s();
double peak_rss_mb();
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Host and build fingerprint as a JSON object.
std::string fingerprint_json(const WorkloadSpec& w,
                             const std::string& source_id);

/// Fixed compute probe: one FlexCore set_channel loop on one thread and on
/// nproc threads at once.  Returns a JSON object.
std::string capacity_probe_json();

/// Writes the spans as Chrome trace-event JSON; false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<FrameSpan>& spans,
                        const std::string& workload);

}  // namespace servebench
