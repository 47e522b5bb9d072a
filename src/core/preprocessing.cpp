#include "core/preprocessing.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace flexcore::core {

namespace {

void fill_level_error_probabilities(linalg::CMatView r, double noise_var,
                                    const Constellation& c,
                                    modulation::PeModel model,
                                    std::vector<double>* pe) {
  const std::size_t nt = r.cols();
  pe->resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    (*pe)[i] = modulation::level_error_probability(model, c,
                                                   std::abs(r(i, i)),
                                                   noise_var);
  }
}

/// Widest tree and densest constellation the packed frontier holds: ranks
/// are stored as rank-1 bytes, one per level.
constexpr std::size_t kMaxSearchLevels = 32;
constexpr int kMaxSearchOrder = 256;

/// Frontier node of the pre-processing tree, stored flat.  The position
/// vector is packed inline as rank-1 bytes, so a byte-wise memcmp over the
/// first Nt bytes orders slots exactly like the lexicographic compare of
/// the 1-based position vectors.
struct Slot {
  double pc;
  std::uint8_t last_inc;  ///< 1-based element whose increment created it
  std::array<std::uint8_t, kMaxSearchLevels> rank;  ///< rank-1 per level
};

/// The search frontier, reused across calls on this thread: it stays at
/// its high-water mark, so a warm search allocates nothing.
std::vector<Slot>& frontier_scratch() {
  thread_local std::vector<Slot> frontier;
  return frontier;
}

/// The best-first search of §3.1.1 over the probabilities already in
/// out->pe.  Emission order is pc descending, ties broken by the position
/// vector ascending.
void search_paths_into(int q, const PreprocessingConfig& cfg,
                       PreprocessingResult* out) {
  if (cfg.num_paths == 0) {
    throw std::invalid_argument("find_most_promising_paths: num_paths == 0");
  }
  const std::vector<double>& pe = out->pe;
  const std::size_t nt = pe.size();
  if (nt > kMaxSearchLevels || q > kMaxSearchOrder) {
    throw std::invalid_argument(
        "find_most_promising_paths: need Nt <= 32 and |Q| <= 256");
  }

  // Root probability prod_l (1 - Pe(l)): Nt-1 multiplications.
  double root_pc = 1.0;
  for (double pe_l : pe) root_pc *= (1.0 - pe_l);
  out->pc_sum = 0.0;
  out->real_mults = nt >= 1 ? nt - 1 : 0;
  out->nodes_expanded = 0;

  const std::size_t cap =
      cfg.candidate_list_cap == 0 ? cfg.num_paths : cfg.candidate_list_cap;
  const std::size_t batch = std::max<std::size_t>(1, cfg.batch_expand);

  const auto better = [nt](const Slot& a, const Slot& b) {
    if (a.pc != b.pc) return a.pc > b.pc;
    return std::memcmp(a.rank.data(), b.rank.data(), nt) < 0;
  };

  // Sorted best first; [0, head) holds popped nodes, [head, size) the live
  // candidate list.  Children are only ever inserted into the live part, so
  // a popped node keeps its index for the rest of its round.
  std::vector<Slot>& frontier = frontier_scratch();
  frontier.clear();
  frontier.push_back(Slot{root_pc, static_cast<std::uint8_t>(nt), {}});
  std::size_t head = 0;

  // Paths are written over the result's existing entries, and new entries
  // take their position vector from out->spare_p, so a warm result reuses
  // every position vector's storage whatever the path count.
  std::size_t emitted = 0;
  out->paths.reserve(cfg.num_paths);
  const auto emit = [&](const Slot& node) {
    if (emitted == out->paths.size()) {
      out->paths.emplace_back();
      if (!out->spare_p.empty()) {
        out->paths.back().p = std::move(out->spare_p.back());
        out->spare_p.pop_back();
      }
    }
    RankedPath& rp = out->paths[emitted++];
    rp.p.resize(nt);
    for (std::size_t i = 0; i < nt; ++i) rp.p[i] = node.rank[i] + 1;
    rp.pc = node.pc;
  };

  while (head < frontier.size() && emitted < cfg.num_paths &&
         out->pc_sum < cfg.stop_threshold) {
    // Pop up to `batch` best frontier nodes for this round.
    const std::size_t first = head;
    head += std::min(batch, frontier.size() - head);

    for (std::size_t popped = first; popped < head; ++popped) {
      if (emitted >= cfg.num_paths || out->pc_sum >= cfg.stop_threshold) {
        break;
      }
      const Slot node = frontier[popped];  // by value: inserts may reallocate
      out->pc_sum += node.pc;
      ++out->nodes_expanded;
      emit(node);

      // A child that would enter the live frontier at or past index
      // `reachable` is never emitted: it is trimmed at the end of the round
      // (index >= cap), or more pops than the remaining path budget would
      // have to come before it.  Its insert is skipped; its multiplication
      // still counts (Table 2 accounting).
      const std::size_t reachable = std::min(cap, cfg.num_paths - emitted);

      // Children: increment element w for w in [1, last_inc]; the dedup rule
      // of §3.1.1 means larger elements are never incremented again.
      for (std::size_t w = 1; w <= node.last_inc; ++w) {
        if (node.rank[w - 1] + 1 >= q) continue;  // rank cannot exceed |Q|
        Slot child = node;
        child.pc = node.pc * pe[w - 1];
        ++out->real_mults;
        child.last_inc = static_cast<std::uint8_t>(w);
        ++child.rank[w - 1];

        // Only the first `reachable` live slots can still be emitted: the
        // child enters only if it beats the last of them.
        const auto live = frontier.begin() + static_cast<std::ptrdiff_t>(head);
        const std::size_t n = std::min(frontier.size() - head, reachable);
        const auto end = live + static_cast<std::ptrdiff_t>(n);
        if (n == reachable && (n == 0 || !better(child, *(end - 1)))) continue;
        frontier.insert(std::upper_bound(live, end, child, better), child);
      }
    }

    // Trim the candidate list to its capacity (drop lowest pc), then drop
    // the popped prefix once it outweighs the live nodes.
    if (frontier.size() - head > cap) frontier.resize(head + cap);
    if (head >= frontier.size() - head) {
      frontier.erase(frontier.begin(),
                     frontier.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  for (std::size_t k = emitted; k < out->paths.size(); ++k) {
    out->spare_p.push_back(std::move(out->paths[k].p));
  }
  out->paths.resize(emitted);
}

}  // namespace

std::vector<double> level_error_probabilities(linalg::CMatView r,
                                              double noise_var,
                                              const Constellation& c,
                                              modulation::PeModel model) {
  std::vector<double> pe;
  fill_level_error_probabilities(r, noise_var, c, model, &pe);
  return pe;
}

void find_most_promising_paths_into(linalg::CMatView r, double noise_var,
                                    const Constellation& c,
                                    const PreprocessingConfig& cfg,
                                    PreprocessingResult* out) {
  fill_level_error_probabilities(r, noise_var, c, cfg.pe_model, &out->pe);
  search_paths_into(c.order(), cfg, out);
}

void find_most_promising_paths_into(const std::vector<double>& pe,
                                    int constellation_order,
                                    const PreprocessingConfig& cfg,
                                    PreprocessingResult* out) {
  if (&pe != &out->pe) out->pe.assign(pe.begin(), pe.end());
  search_paths_into(constellation_order, cfg, out);
}

PreprocessingResult find_most_promising_paths(linalg::CMatView r,
                                              double noise_var,
                                              const Constellation& c,
                                              const PreprocessingConfig& cfg) {
  PreprocessingResult out;
  find_most_promising_paths_into(r, noise_var, c, cfg, &out);
  return out;
}

PreprocessingResult find_most_promising_paths(const std::vector<double>& pe,
                                              int constellation_order,
                                              const PreprocessingConfig& cfg) {
  PreprocessingResult out;
  find_most_promising_paths_into(pe, constellation_order, cfg, &out);
  return out;
}

std::vector<RankedPath> rank_paths_exhaustive(const std::vector<double>& pe,
                                              int constellation_order,
                                              std::size_t nt,
                                              std::size_t num_paths) {
  const std::uint64_t q = static_cast<std::uint64_t>(constellation_order);
  double total_d = static_cast<double>(nt) * std::log2(static_cast<double>(q));
  if (total_d > 24) {
    throw std::invalid_argument("rank_paths_exhaustive: search space too large");
  }
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < nt; ++i) total *= q;

  std::vector<RankedPath> all;
  all.reserve(total);
  for (std::uint64_t code = 0; code < total; ++code) {
    PositionVector p(nt);
    std::uint64_t v = code;
    double pc = 1.0;
    for (std::size_t i = 0; i < nt; ++i) {
      const int k = static_cast<int>(v % q) + 1;
      v /= q;
      p[i] = k;
      pc *= (1.0 - pe[i]) * std::pow(pe[i], k - 1);
    }
    all.push_back(RankedPath{std::move(p), pc});
  }
  std::sort(all.begin(), all.end(), [](const RankedPath& a, const RankedPath& b) {
    if (a.pc != b.pc) return a.pc > b.pc;
    return a.p < b.p;
  });
  if (all.size() > num_paths) all.resize(num_paths);
  return all;
}

}  // namespace flexcore::core
