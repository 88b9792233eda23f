// Iterative engine for Algorithm 1: DECOMP + CONTRACT per level going up,
// RELABELUP back down the recorded level stack. Semantically identical to
// the old allocate-per-level recursion (same per-level seeds, same
// operation order), but every array is carved from reusable arenas. A
// forest run threads the witness arrays alongside every level graph and
// lets the claim witnesses join the forest at every BFS round.

#include "core/cc_engine.hpp"

#include <cassert>

#include "core/contract.hpp"
#include "core/ldd.hpp"
#include "parallel/atomics.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"
#include "parallel/timer.hpp"

namespace pcc::cc {

namespace {

using parallel::parallel_for;

// Sequential union-find over a level graph — the safety net for the
// (never-observed) case that the level loop fails to make progress within
// opt.max_levels. `parent` is scratch of size g.n. With a forest sink, the
// witness of every uniting edge joins the forest.
void sequential_components_into(const ldd::work_graph& g,
                                std::span<vertex_id> labels,
                                std::span<vertex_id> parent,
                                ldd::forest_sink* forest) {
  for (size_t v = 0; v < g.n; ++v) parent[v] = static_cast<vertex_id>(v);
  const auto find = [&](vertex_id x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t u = 0; u < g.n; ++u) {
    const vertex_id uv = static_cast<vertex_id>(u);
    const edge_id start = g.offsets[u];
    for (vertex_id i = 0; i < g.degrees[u]; ++i) {
      const vertex_id w = g.edges[start + i];
      const vertex_id ru = find(uv);
      const vertex_id rw = find(w);
      if (ru != rw) {
        parent[ru < rw ? rw : ru] = ru < rw ? ru : rw;
        if (forest != nullptr) {
          forest->forest[forest->count++] =
              forest->witness_of(uv, start + i, w);
        }
      }
    }
  }
  for (size_t v = 0; v < g.n; ++v) {
    labels[v] = find(static_cast<vertex_id>(v));
  }
}

ldd::decomp_info run_decomposition(ldd::work_graph& wg, const cc_options& opt,
                                   uint64_t level,
                                   std::span<vertex_id> cluster,
                                   ldd::forest_sink* forest,
                                   parallel::workspace& ws, cc_stats* stats) {
  ldd::options dopt;
  dopt.beta = opt.beta;
  dopt.shifts = opt.shifts;
  // Fresh randomness per level: otherwise an unlucky schedule could repeat.
  dopt.seed = parallel::hash64(opt.seed + 0x9e37 * (level + 1));
  dopt.dense_threshold = opt.dense_threshold;
  dopt.parallel_edge_threshold = opt.parallel_edge_threshold;
  parallel::phase_timer* pt = stats != nullptr ? &stats->phases : nullptr;
  if (forest != nullptr) {
    return ldd::decomp_arb_hybrid_into(wg, dopt, cluster, *forest, ws, pt);
  }
  switch (opt.variant) {
    case decomp_variant::kMin:
      return ldd::decomp_min_into(wg, dopt, cluster, ws, pt);
    case decomp_variant::kArb:
      return ldd::decomp_arb_into(wg, dopt, cluster, ws, pt);
    case decomp_variant::kArbHybrid:
      return ldd::decomp_arb_hybrid_into(wg, dopt, cluster, ws, pt);
  }
  return {};  // unreachable
}

}  // namespace

void cc_engine::reserve(size_t n, size_t m) {
  persist_.reset();
  scratch_.reset();
  graph_[0].reset();
  graph_[1].reset();
  frames_.clear();
  // Heuristics for the level-0-dominated footprints; the arenas self-size
  // to the true high-water mark after the first run either way.
  persist_.reserve(sizeof(vertex_id) * 4 * n);
  // graph_[0] holds exactly the level-0 edge copy and degrees, two takes
  // that are each padded to a cache line.
  graph_[0].reserve(sizeof(vertex_id) * (m + n) + 2 * kCacheLineBytes);
  graph_[1].reserve(sizeof(vertex_id) * (m + n));
  scratch_.reserve(sizeof(vertex_id) * 16 * n + 8 * m);
  // Level count varies run to run (the decomposition's benign races make
  // clustering schedule-dependent), so sizing frames_ off the first run's
  // depth would let a deeper rerun reallocate; reserve the cap instead.
  frames_.reserve(opt_.max_levels);
}

std::span<const vertex_id> cc_engine::run(const graph::graph& g,
                                          cc_stats* stats) {
  return run(g, opt_, stats);
}

std::span<const vertex_id> cc_engine::run(const graph::graph& g,
                                          const cc_options& opt,
                                          cc_stats* stats) {
  return run_levels(g, opt, /*forest=*/false, stats);
}

cc_engine::forest_result cc_engine::run_forest(const graph::graph& g,
                                               cc_stats* stats) {
  return run_forest(g, opt_, stats);
}

cc_engine::forest_result cc_engine::run_forest(const graph::graph& g,
                                               const cc_options& opt,
                                               cc_stats* stats) {
  const std::span<const vertex_id> labels =
      run_levels(g, opt, /*forest=*/true, stats);
  return {labels, last_forest()};
}

std::span<const vertex_id> cc_engine::run_levels(const graph::graph& g,
                                                 const cc_options& opt,
                                                 bool forest,
                                                 cc_stats* stats) {
  const size_t n0 = g.num_vertices();
  const size_t m0 = g.num_edges();

  // The previous run's labels die here; this is also where a first-run
  // multi-chunk arena consolidates to its high-water mark. At >1 worker the
  // decomposition's CAS races make the kept-edge count, and with it the
  // contraction's buffers, differ from run to run (the scratch high-water
  // mark spread ~1.5% over repeated oversubscribed runs on the test
  // corpus); 1/8 headroom keeps the consolidated arena from chaining again
  // on the next run. Arenas that reserve() sized large enough never chain,
  // so they get no headroom. A forest run's footprint is deterministic,
  // but the same consolidation lets the labels runs that share the engine
  // reuse its larger arenas.
  for (parallel::workspace* ws :
       {&persist_, &scratch_, &graph_[0], &graph_[1]}) {
    ws->reset(ws->high_water() / 8);
  }
  frames_.clear();
  // No-op after the first run; see the note in reserve() on why frames_
  // is sized by the cap rather than by observed depth.
  frames_.reserve(opt.max_levels);
  forest_storage_.clear();

  if (n0 == 0) return {};
  std::span<vertex_id> labels = persist_.take<vertex_id>(n0);
  // The forest holds n0 - #components < n0 packed witnesses; claims append
  // here round by round, the fallback appends serially.
  ldd::forest_sink sink;
  ldd::forest_sink* fs = forest ? &sink : nullptr;
  if (forest) sink.forest = persist_.take<uint64_t>(n0);
  if (m0 == 0) {
    // Every vertex is its own component.
    parallel_for(0, n0,
                 [&](size_t v) { labels[v] = static_cast<vertex_id>(v); });
    return labels;
  }

  // Level-0 working graph: offsets borrowed from g; the edge array is
  // copied into graph_[0] because the decomposition compacts it in place.
  // The witness array is NOT pre-stamped: level 0 decomposes in
  // identity-witness mode (the witness of slot (v, j) is the edge itself),
  // which writes witnesses only into slots that survive compaction.
  std::span<vertex_id> edges0 = graph_[0].take<vertex_id>(m0);
  std::span<vertex_id> degrees0 = graph_[0].take<vertex_id>(n0);
  if (forest) sink.witness = graph_[0].take<uint64_t>(m0);
  const std::vector<vertex_id>& ge = g.edges();
  parallel_for(0, m0, [&](size_t i) { edges0[i] = ge[i]; });
  parallel_for(0, n0, [&](size_t v) {
    degrees0[v] = g.degree(static_cast<vertex_id>(v));
  });
  ldd::work_graph cur = ldd::work_graph::over(
      n0, std::span<const edge_id>(g.offsets()), edges0, degrees0);
  int ping = 0;  // graph_ arena holding cur's storage

  // Go up: decompose and contract until the edges run out (or the safety
  // net engages), recording the lift state of each level.
  std::span<const vertex_id> base;  // labels of the topmost solved level
  size_t level = 0;
  while (true) {
    sink.identity_witness = level == 0;
    if (level >= opt.max_levels) {
      if (stats != nullptr) stats->used_fallback = true;
      std::span<vertex_id> fb = scratch_.take<vertex_id>(cur.n);
      std::span<vertex_id> parent = scratch_.take<vertex_id>(cur.n);
      sequential_components_into(cur, fb, parent, fs);
      base = fb;
      break;
    }
    if (level > 0) {
      // The arena not holding cur kept the level before last's graph; that
      // graph is dead (only its lift state in persist_ is still needed).
      graph_[1 - ping].reset();
    }

    // L = DECOMP(G, beta) — claim witnesses flow into the forest here.
    std::span<vertex_id> cluster = persist_.take<vertex_id>(cur.n);
    ldd::decomp_info dec;
    {
      parallel::workspace::scope s(scratch_);
      dec = run_decomposition(cur, opt, level, cluster, fs, scratch_, stats);
    }

    // G' = CONTRACT(G, L), keeping one witness per surviving pair.
    parallel::timer contract_timer;
    const contraction_view cv =
        forest ? contract_into(cur, std::span<const uint64_t>(sink.witness),
                               cluster, opt.dedup, persist_, graph_[1 - ping],
                               scratch_, opt.dedup_route)
               : contract_into(cur, cluster, opt.dedup, persist_,
                               graph_[1 - ping], scratch_, opt.dedup_route);
    if (stats != nullptr) {
      stats->phases.add("contractGraph", contract_timer.elapsed());
      level_stats ls;
      ls.n = cur.n;
      ls.m = cur.edges.size();
      ls.edges_kept = dec.edges_kept;
      ls.edges_after_dedup = cv.edges.size();
      ls.num_clusters = dec.num_clusters;
      ls.num_singletons = dec.num_clusters >= cv.num_vertices
                              ? dec.num_clusters - cv.num_vertices
                              : 0;
      ls.bfs_rounds = dec.num_rounds;
      ls.dense_rounds = dec.num_dense_rounds;
      ls.dedup_route = cv.dedup_route;
      stats->levels.push_back(ls);
    }

    // if |E'| = 0 return L — this level's clustering is its labeling, so
    // no lift frame is recorded for it.
    if (cv.edges.empty()) {
      base = cluster;
      break;
    }

    frames_.push_back({cluster, cv.new_id, cv.rep, cur.n});
    ping = 1 - ping;
    std::span<vertex_id> degrees =
        graph_[ping].take<vertex_id>(cv.num_vertices);
    parallel_for(0, cv.num_vertices, [&](size_t v) {
      degrees[v] =
          static_cast<vertex_id>(cv.offsets[v + 1] - cv.offsets[v]);
    });
    cur = ldd::work_graph::over(cv.num_vertices, cv.offsets, cv.edges,
                                degrees);
    sink.witness = cv.edge_witness;
    ++level;
  }

  // Come back down (RELABELUP): a cluster that survived into the next
  // level takes the representative of its contracted component, mapped
  // back through rep[]; a singleton cluster keeps its center as the label.
  // Representatives of distinct components stay distinct (rep is injective
  // and centers of singleton clusters are never reps of non-singleton
  // ones).
  parallel::timer relabel_timer;
  {
    parallel::workspace::scope s(scratch_);
    for (size_t f = frames_.size(); f-- > 0;) {
      const level_frame& fr = frames_[f];
      std::span<vertex_id> lifted =
          f == 0 ? labels : scratch_.take<vertex_id>(fr.n);
      parallel_for(0, fr.n, [&](size_t v) {
        const vertex_id c = fr.cluster[v];
        const vertex_id x = fr.new_id[c];
        lifted[v] = (x == kNoVertex) ? c : fr.rep[base[x]];
      });
      base = lifted;
    }
    if (frames_.empty()) {
      // The loop solved level 0 directly; publish its labeling.
      parallel_for(0, n0, [&](size_t v) { labels[v] = base[v]; });
    }
  }
  if (stats != nullptr) {
    stats->phases.add("contractGraph", relabel_timer.elapsed());
  }

  if (forest) {
    // Publish the forest as unpacked (u, v) pairs. Determinism makes the
    // count identical run to run, so after warm-up the resize stays within
    // capacity and allocates nothing.
    assert(sink.count < n0);
    forest_storage_.resize(sink.count);
    parallel_for(0, sink.count, [&](size_t i) {
      forest_storage_[i] = {parallel::pair_first(sink.forest[i]),
                            parallel::pair_second(sink.forest[i])};
    });
  }
  return labels;
}

}  // namespace pcc::cc
