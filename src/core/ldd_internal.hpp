// Shared internals of the decomposition variants: the shift-value schedule,
// the edge-marking helpers and the split-piece stitch. Not part of the
// public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/ldd.hpp"
#include "parallel/arena.hpp"
#include "parallel/emit.hpp"
#include "parallel/integer_sort.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::ldd::internal {

// Sign-bit marking of edge entries (paper: "sets the sign bit of the value
// (negates it and subtracts 1)"). With 31-bit vertex ids we use the top bit
// of the uint32 entry.
inline constexpr vertex_id kEdgeMark = vertex_id{1} << 31;
inline constexpr vertex_id mark_edge(vertex_id label) { return label | kEdgeMark; }
inline constexpr vertex_id unmark_edge(vertex_id e) { return e & ~kEdgeMark; }
inline constexpr bool is_marked(vertex_id e) { return (e & kEdgeMark) != 0; }

// Produces, per BFS round, the batch of vertices whose shift value falls in
// [round, round+1) — the candidates to become new BFS centers (those still
// unvisited actually start one).
//
// kPermutationChunks simulates the exponential shifts as the paper
// describes: round t takes the prefix of size ceil(e^{beta*t}) of a random
// permutation (so chunk sizes grow exponentially); round 0 always starts
// exactly one BFS. The permutation is a random_bijection evaluated on
// demand, so a level pays only for the prefix its BFS consumes — usually
// a tiny fraction of n — and the schedule holds no O(n) state.
//
// kExponentialShifts draws delta_v ~ Exp(beta) exactly, buckets vertices by
// floor(delta_v) with one integer sort, and serves bucket t at round t.
class shift_schedule {
 public:
  shift_schedule(size_t n, const options& opt)
      : n_(n), perm_(n, opt.seed), beta_(opt.beta) {
    if (opt.shifts == shift_mode::kExponentialShifts) {
      // Exact shifts: delta_v ~ Exp(beta); the BFS of v starts at time
      // delta_max - delta_v (the largest shift starts first — this reversal
      // is what makes the number of active BFS's grow exponentially, which
      // the permutation-chunk mode simulates). Bucket vertices by
      // floor(start time) with one integer sort.
      const parallel::rng gen = parallel::rng(opt.seed).split(7);
      std::vector<double> delta(n);
      parallel::parallel_for(0, n, [&](size_t v) {
        delta[v] = gen.exponential(v, opt.beta);
      });
      const double delta_max = parallel::reduce_max<double>(
          n, [&](size_t v) { return delta[v]; }, 0.0);
      std::vector<std::pair<uint32_t, vertex_id>> keyed(n);
      parallel::parallel_for(0, n, [&](size_t v) {
        const double start = std::max(0.0, delta_max - delta[v]);
        keyed[v] = {static_cast<uint32_t>(std::min(start, 4.0e9)),
                    static_cast<vertex_id>(v)};
      });
      uint32_t max_floor = parallel::reduce_max<uint32_t>(
          n, [&](size_t i) { return keyed[i].first; }, 0);
      parallel::integer_sort(
          keyed, parallel::bits_needed(static_cast<uint64_t>(max_floor) + 1),
          [](const auto& p) { return p.first; });
      bucket_end_.assign(static_cast<size_t>(max_floor) + 2, 0);
      order_.resize(n);
      parallel::parallel_for(0, n, [&](size_t i) {
        order_[i] = keyed[i].second;
      });
      // bucket_end_[t] = first index with floor > t (sequential; #buckets
      // is O(log n / beta)).
      size_t i = 0;
      for (size_t t = 0; t + 1 < bucket_end_.size(); ++t) {
        while (i < n && keyed[i].first <= t) ++i;
        bucket_end_[t] = i;
      }
      bucket_end_.back() = n;
    }
  }

  // Vertices whose shift lies in [round, round+1), as a range of schedule
  // positions. Returns {begin_index, end_index}.
  std::pair<size_t, size_t> batch(size_t round) const {
    if (bucket_end_.empty()) {
      // Permutation chunks: by the end of round t the first
      // ceil(e^{beta*t}) permutation entries have been offered, so round 0
      // starts exactly one BFS and chunk sizes grow by e^beta per round.
      const size_t end = chunk_prefix(round);
      const size_t begin = round == 0 ? 0 : chunk_prefix(round - 1);
      return {begin, end};
    }
    const size_t t = std::min(round, bucket_end_.size() - 1);
    const size_t begin = t == 0 ? 0 : bucket_end_[t - 1];
    return {begin, bucket_end_[t]};
  }

  // The vertex at schedule position i. In permutation mode this evaluates
  // the bijection, so callers should read each position once.
  vertex_id vertex_at(size_t i) const {
    return bucket_end_.empty() ? perm_(i) : order_[i];
  }

 private:
  // Number of permutation entries offered by the START of `round`:
  // ceil(e^{beta * round}), clamped to n; round 0 offers exactly 1 center.
  size_t chunk_prefix(size_t round) const {
    const double expo = beta_ * static_cast<double>(round);
    if (expo > std::log(static_cast<double>(n_) + 1.0) + 1.0) return n_;
    return std::min(n_, static_cast<size_t>(std::ceil(std::exp(expo))));
  }

  size_t n_;
  parallel::random_bijection perm_;  // permutation mode
  double beta_;
  std::vector<vertex_id> order_;    // exponential mode: bucketed vertices
  std::vector<size_t> bucket_end_;  // non-empty iff exponential mode
};

// Append the unvisited members of this round's batch as new BFS centers:
// sets visited-state via `make_center(v)` and pushes v onto `frontier`
// starting at index `frontier_size` (the caller advances its size by the
// returned count — a vertex joins the frontier at most once over a whole
// decomposition, so a capacity of n always suffices). Candidates within
// one batch are distinct (they come from a permutation), so no
// synchronization is needed against each other; the caller guarantees
// phase separation from edge processing. Flag/scan scratch comes from `ws`
// and is rewound before returning.
template <typename IsUnvisited, typename MakeCenter>
size_t add_new_centers(const shift_schedule& sched, size_t round,
                       std::span<vertex_id> frontier, size_t frontier_size,
                       parallel::workspace& ws, IsUnvisited&& is_unvisited,
                       MakeCenter&& make_center) {
  const auto [begin, end] = sched.batch(round);
  if (begin >= end) return 0;
  parallel::workspace::scope s(ws);
  // Two-pass pack keeps the frontier deterministic: flag, scan, scatter.
  // The first pass reads each candidate from the schedule once and keeps
  // it for the scatter.
  const size_t count = end - begin;
  std::span<vertex_id> cand = ws.take<vertex_id>(count);
  std::span<uint8_t> flags = ws.take<uint8_t>(count);
  std::span<size_t> pos = ws.take<size_t>(count);
  parallel::parallel_for(0, count, [&](size_t i) {
    const vertex_id v = sched.vertex_at(begin + i);
    cand[i] = v;
    flags[i] = is_unvisited(v) ? 1 : 0;
  });
  const size_t added = parallel::scan_exclusive_span<size_t>(
      count, [&](size_t i) { return static_cast<size_t>(flags[i]); }, pos,
      ws);
  parallel::parallel_for(0, count, [&](size_t i) {
    if (flags[i]) {
      make_center(cand[i]);
      // lint: private-write(pos is an exclusive scan, injective on flagged i)
      frontier[frontier_size + pos[i]] = cand[i];
    }
  });
  return added;
}

// Stitch the entries a compacting frontier_edge_for pass split across
// chunks back together (parallel::fix_split_pieces): slide each one's kept
// runs (and their witnesses, when `witness` is non-empty) down to its
// adjacency prefix, publish its kept count in wg.degrees, and mark it
// resolved when `resolved` is non-empty. vertex_of maps an entry index to
// its vertex.
template <typename VertexOf>
void stitch_split_pieces(const parallel::frontier_result& run,
                         work_graph& wg, VertexOf&& vertex_of,
                         std::span<uint64_t> witness,
                         std::span<uint8_t> resolved) {
  std::span<vertex_id> E = wg.edges;
  parallel::fix_split_pieces(
      run.partials,
      [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
        const edge_id start = wg.offsets[vertex_of(fi)];
        // Forward copy; dst <= src so overlapping ranges are safe.
        // lint: private-write(leader task owns entry fi's CSR slice)
        std::copy(E.begin() + start + src, E.begin() + start + src + len,
                  E.begin() + start + dst);
        if (!witness.empty()) {
          // lint: private-write(same leader-owned slice, witness array)
          std::copy(witness.begin() + start + src,
                    witness.begin() + start + src + len,
                    witness.begin() + start + dst);
        }
      },
      [&](uint32_t fi, uint32_t kept) {
        const vertex_id v = vertex_of(fi);
        // lint: private-write(one leader task per split vertex)
        wg.degrees[v] = kept;
        if (!resolved.empty()) {
          resolved[v] = 1;  // lint: private-write(same owner invariant)
        }
      });
}

// Assemble the vector-returning `result` the public wrappers expose from a
// span-based core's outputs.
inline result to_result(std::vector<vertex_id>&& cluster,
                        const decomp_info& info) {
  result res;
  res.cluster = std::move(cluster);
  res.num_clusters = info.num_clusters;
  res.num_rounds = info.num_rounds;
  res.num_dense_rounds = info.num_dense_rounds;
  res.edges_kept = info.edges_kept;
  return res;
}

}  // namespace pcc::ldd::internal
