#include "detect/fcsd.h"

#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "detect/path_grid.h"
#include "parallel/hot_path.h"
#include "parallel/thread_pool.h"

namespace flexcore::detect {

void FcsdDetector::set_channel(const CMat& h, double /*noise_var*/) {
  if (full_levels_ > h.cols()) {
    throw std::invalid_argument("FcsdDetector: full_levels > Nt");
  }
  qr_ = linalg::fcsd_sorted_qr(h, full_levels_);
  const std::size_t nt = qr_.R.cols();
  const int q = constellation_->order();
  rx_.assign(nt, CVec(static_cast<std::size_t>(q)));
  for (std::size_t i = 0; i < nt; ++i) {
    for (int x = 0; x < q; ++x) {
      rx_[i][static_cast<std::size_t>(x)] = qr_.R(i, i) * constellation_->point(x);
    }
  }

  // Compile the block-kernel plan in the configured precision tier.
  if (precision_ == Precision::kInt16) {
    plan16_.compile_fcsd(qr_.R, full_levels_, *constellation_);
    plan64_.clear();
  } else {
    plan64_.compile_fcsd(qr_.R, full_levels_, *constellation_);
    plan16_.clear();
  }
}

std::size_t FcsdDetector::num_paths() const {
  std::size_t n = 1;
  for (std::size_t l = 0; l < full_levels_; ++l) {
    n *= static_cast<std::size_t>(constellation_->order());
  }
  return n;
}

FLEXCORE_HOT_PATH
void FcsdDetector::rotate_into(const CVec& y, std::span<cplx> out) const {
  linalg::hermitian_mul_into(qr_.Q, y, out);
}

FcsdDetector::PathEval FcsdDetector::evaluate_path(const CVec& ybar,
                                                   std::size_t path_index) const {
  detect::Workspace ws;
  PathEval ev;
  evaluate_path(ybar, path_index, ws, &ev.metric, &ev.stats);
  ev.symbols = ws.symbols;
  return ev;
}

FLEXCORE_HOT_PATH
void FcsdDetector::evaluate_path(std::span<const cplx> ybar,
                                 std::size_t path_index,
                                 detect::Workspace& ws, double* metric,
                                 DetectionStats* stats) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  const std::size_t q = static_cast<std::size_t>(constellation_->order());

  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.symbols.assign(nt, 0);
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.s.assign(nt, cplx{0.0, 0.0});
  *metric = 0.0;
  *stats = DetectionStats{};

  // Decode the fully-expanded level symbols from the path index: digit 0
  // drives the topmost level (detected first).
  std::size_t v = path_index;
  for (std::size_t d = 0; d < full_levels_; ++d) {
    ws.symbols[nt - 1 - d] = static_cast<int>(v % q);
    v /= q;
  }

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    cplx b = ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) {
      b -= r(i, j) * ws.s[j];
      stats->real_mults += 4;
      stats->flops += 8;
    }
    int x;
    if (ii < full_levels_) {
      x = ws.symbols[i];  // enumerated level
    } else {
      // Greedy single-child extension: nearest constellation point.
      x = constellation_->slice(b / r(i, i));
      stats->real_mults += 4;  // complex-by-real-reciprocal divide
      stats->flops += 8;
    }
    ws.symbols[i] = x;
    ws.s[i] = constellation_->point(x);
    *metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
    stats->real_mults += 2;
    stats->flops += 5;
    ++stats->nodes_visited;
  }
}

bool FcsdDetector::reconstruct_winner(std::span<const cplx> ybar,
                                      std::size_t best_path,
                                      double /*best_metric*/,
                                      detect::Workspace& ws,
                                      DetectionResult* res) const {
  evaluate_path(ybar, best_path, ws, &res->metric, &res->stats);
  linalg::unpermute_into(ws.symbols, qr_.perm, &res->symbols);
  res->stats.paths_evaluated = num_paths();
  return false;
}

FLEXCORE_HOT_PATH
double FcsdDetector::path_metric(std::span<const cplx> ybar,
                                 std::size_t path_index) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  assert(nt <= 32);
  const std::size_t q = static_cast<std::size_t>(constellation_->order());

  std::array<int, 32> top;
  std::size_t v = path_index;
  for (std::size_t d = 0; d < full_levels_; ++d) {
    top[d] = static_cast<int>(v % q);
    v /= q;
  }

  std::array<cplx, 32> s;
  double metric = 0.0;
  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    cplx b = ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) b -= r(i, j) * s[j];
    const int x = (ii < full_levels_)
                      ? top[ii]
                      : constellation_->slice(b / r(i, i));
    s[i] = constellation_->point(x);
    metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
  }
  return metric;
}

DetectionResult FcsdDetector::detect(const CVec& y) const {
  const CVec ybar = rotate(y);
  const std::size_t paths = num_paths();

  DetectionResult res;
  res.metric = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < paths; ++p) {
    PathEval ev = evaluate_path(ybar, p);
    res.stats += ev.stats;
    if (ev.metric < res.metric) {
      res.metric = ev.metric;
      res.symbols = std::move(ev.symbols);
    }
  }
  res.symbols = linalg::unpermute(res.symbols, qr_.perm);
  res.stats.paths_evaluated = paths;
  return res;
}

void FcsdDetector::detect_batch(std::span<const CVec> ys,
                                BatchResult* out) const {
  const std::size_t paths = num_paths();
  if (pool_ == nullptr || paths == 0 || ys.empty()) {
    Detector::detect_batch(ys, out);
    return;
  }
  const std::size_t nv = ys.size();
  run_path_grid(*this, paths, ys, qr_.R.cols(), *pool_, &grid_);

  out->results.assign(nv, DetectionResult{});
  out->stats = DetectionStats{};
  out->sic_fallbacks = 0;  // every FCSD path is always valid
  out->tasks = grid_.tasks;
  out->elapsed_seconds = grid_.elapsed_seconds;

  // Winner reconstruction: one instrumented path walk per vector (the grid
  // itself runs the metric-only block kernel).
  workspaces_.ensure(pool_->size());
  pool_->parallel_for_worker(nv, [&](std::size_t w, std::size_t v) {
    reconstruct_winner(grid_.ybar(v), grid_.best_path[v], grid_.best_metric[v],
                       workspaces_.at(w), &out->results[v]);
  });
  for (const DetectionResult& res : out->results) out->stats += res.stats;
}

}  // namespace flexcore::detect
