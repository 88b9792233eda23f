// Decomp-Arb-Hybrid: Decomp-Arb with direction-optimizing traversal
// (Beamer et al.; Ligra-style), as described in Section 4 of the paper.
// This is the one Arb traversal of the library: Decomp-Arb (Algorithm 3)
// is the same loop with its dense rounds off, and the spanning-forest run
// is the same loop with witnesses recorded.
//
// When the frontier holds more than `dense_threshold` of the vertices the
// round switches to a read-based computation: every unvisited vertex scans
// its neighbours and adopts the cluster of the first one it finds on the
// frontier, then exits the scan early. The read direction is more
// cache-friendly and needs no atomics, but it leaves edge statuses
// undetermined, so a post-processing pass (filterEdges) resolves the edges
// of every vertex that was never processed in a write-based round. A
// per-vertex `resolved` flag records which adjacencies a write-based round
// already relabeled, so filterEdges leaves those untouched; when no round
// ran dense every vertex is resolved and the pass is skipped. A threshold
// >= 1 turns dense rounds off altogether (no frontier exceeds n): that is
// Decomp-Arb, whose write-based phase keeps the paper's name bfsMain.
//
// Dense rounds iterate a *shrinking* unvisited list instead of rescanning
// all n vertices every round, and test frontier membership against a
// bit-packed frontier (n/8 bytes, cache-resident for the graphs the paper
// measures) instead of a byte flag per vertex. Write-based rounds and
// filterEdges are edge-balanced via frontier_edge_for, so hub vertices are
// split across chunks and the next frontier is emitted without a shared
// cursor.
//
// Two outputs. Labels only: a write-based round claims with one CAS per
// target (arbitrary tie-breaking — whichever BFS lands first wins, which
// Theorem 2 shows only doubles the inter-cluster edge bound). Labels plus
// forest: every edge slot carries a witness (forest_sink in ldd.hpp), the
// BFS claim edges of every cluster form its spanning tree, and their
// witnesses join the forest. A forest edge's identity depends on WHICH
// claim wins, so that output resolves write-based claims with a two-phase
// rank protocol instead of the CAS (sparse_round below); dense
// rounds are deterministic for free. The round loop, the dense pull and
// filterEdges are shared; the witness work is compiled in only for the
// forest output.

#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"

namespace pcc::ldd {

namespace {
using parallel::atomic_load;
using parallel::atomic_store;
using parallel::cas;
using parallel::parallel_for;
using parallel::timer;

// A resolved claim from one forest-output round: the claimed vertex (joins
// the next frontier) and the witness of the claiming edge (joins the
// forest).
struct claim_rec {
  vertex_id w;
  uint64_t witness;
};

// Output policy: labels only. Every witness hook compiles away.
struct labels_only {
  static constexpr bool kForest = false;
  void init(size_t, parallel::workspace&) {}
};

// Output policy: labels plus forest. Holds the caller's sink and the
// claim-protocol state the forest output adds to the traversal.
struct forest_output {
  static constexpr bool kForest = true;
  forest_sink& sink;
  bool serial = false;
  // One write-based round's resolved claims (at most n per round).
  std::span<claim_rec> claims{};
  // Proposal ranks; ~0 is the write_min identity. Empty at one worker.
  std::span<uint64_t> claim{};
  // The witness each dense-round adopter was claimed through.
  std::span<uint64_t> dense_wit{};

  void init(size_t n, parallel::workspace& ws) {
    serial = parallel::num_workers() <= 1;
    claims = ws.take<claim_rec>(n);
    // Initialized once: claim[w] is only consulted while w is unvisited,
    // and a vertex is claimed at most once, so it needs no per-round reset.
    if (!serial) claim = ws.take_filled<uint64_t>(n, ~uint64_t{0});
    dense_wit = ws.take<uint64_t>(n);
  }
};

// Write-based round, labels only (Lines 9-20 of Algorithm 3): a frontier
// vertex v scans its remaining edges; an unvisited neighbour w is claimed
// with a CAS on C[w] and joins `next`, and the edge is deleted as
// intra-cluster; otherwise the edge is kept iff the labels differ, with the
// target relabeled to its cluster id on the fly. A piece compacts its kept
// edges to the front of its own [jlo, jhi) subrange; split vertices are
// stitched together afterwards. Returns the next frontier's size.
size_t sparse_round(labels_only&, work_graph& wg, std::span<vertex_id> C,
                    std::span<uint8_t> resolved,
                    std::span<const vertex_id> frontier, size_t frontier_size,
                    std::span<vertex_id> next, parallel::workspace& ws) {
  std::span<const edge_id> V = wg.offsets;
  std::span<vertex_id> E = wg.edges;
  std::span<vertex_id> D = wg.degrees;
  parallel::workspace::scope round_scope(ws);
  const parallel::frontier_result run = parallel::frontier_edge_for<vertex_id>(
      frontier_size, [&](size_t fi) { return D[frontier[fi]]; }, next, ws,
      [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
          parallel::emitter<vertex_id>& em) -> uint32_t {
        const vertex_id v = frontier[fi];
        // Local raw pointers: the CAS is a compiler barrier that forces
        // captured spans to be re-read every edge; a non-escaping local
        // stays in a register across it.
        vertex_id* const cl = C.data();
        vertex_id* const ed = E.data();
        const vertex_id my_label = cl[v];
        const edge_id start = V[v];
        uint32_t k = jlo;
        for (uint32_t i = jlo; i < jhi; ++i) {
          const vertex_id w = ed[start + i];
          if (atomic_load(&cl[w]) == kNoVertex &&
              cas(&cl[w], kNoVertex, my_label)) {
            // v claimed w: intra-cluster edge, deleted by not keeping it.
            em(w);
          } else {
            const vertex_id w_label = atomic_load(&cl[w]);
            if (w_label != my_label) {
              // lint: private-write(piece owns slots [jlo, jhi) of v)
              ed[start + k] = w_label;  // inter-cluster: keep, relabeled
              ++k;
            }
          }
        }
        if (jlo == 0 && jhi == deg) {
          // lint: private-write(whole-vertex piece: sole writer)
          D[v] = k;
          resolved[v] = 1;  // lint: private-write(same owner)
        }
        return k - jlo;
      });
  internal::stitch_split_pieces(
      run, wg, [&](uint32_t fi) { return frontier[fi]; }, {}, resolved);
  return run.emitted;
}

// Write-based round, forest output: the same scan, but claims are resolved
// deterministically in two phases so the forest is a pure function of
// (graph, options), identical across worker counts.
//   A (propose) — every frontier edge (fi, i) -> w with C[w] still
//     unvisited folds its rank (fi << 32 | i) into claim[w] with an atomic
//     write_min. C is not written, so the racy reads are stable.
//   B (resolve) — the edge whose rank equals claim[w] claims w (atomic
//     store of its label) and emits the claim; every other edge resolves
//     w's label deterministically: if it reads the winner's store it uses
//     that, otherwise it computes the same value as C[frontier[claim[w] >>
//     32]] (claim[w] is stable after phase A, and frontier labels predate
//     the round). Both sides of that race yield the identical label, so the
//     kept/dropped decision and the compacted adjacency are deterministic.
// At one worker, phase A is skipped and phase B claims on first arrival:
// the serial traversal meets edges in flattened order, so the first
// proposer IS the minimum rank and the outcome matches the two-phase
// protocol exactly. Kept edges carry their witnesses along; the claimed
// vertices join `next` and their witnesses the forest.
size_t sparse_round(forest_output& out, work_graph& wg,
                    std::span<vertex_id> C, std::span<uint8_t> resolved,
                    std::span<const vertex_id> frontier, size_t frontier_size,
                    std::span<vertex_id> next, parallel::workspace& ws) {
  std::span<const edge_id> V = wg.offsets;
  std::span<vertex_id> E = wg.edges;
  std::span<vertex_id> D = wg.degrees;
  const forest_sink& sink = out.sink;
  std::span<uint64_t> witness = sink.witness;
  std::span<uint64_t> claim = out.claim;
  const bool serial = out.serial;
  parallel::workspace::scope round_scope(ws);
  const auto deg_of = [&](size_t fi) { return D[frontier[fi]]; };

  if (!serial) {
    // Phase A: propose. No writes to C, no compaction — partial pieces
    // need no stitching.
    parallel::frontier_edge_for(
        frontier_size, deg_of, ws,
        [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t) -> uint32_t {
          const vertex_id v = frontier[fi];
          const edge_id start = V[v];
          for (uint32_t i = jlo; i < jhi; ++i) {
            const vertex_id w = E[start + i];
            if (atomic_load(&C[w]) == kNoVertex) {
              parallel::write_min(&claim[w],
                                  (static_cast<uint64_t>(fi) << 32) | i);
            }
          }
          return 0;
        });
  }

  // Phase B: resolve claims, emit them, and compact the surviving
  // inter-cluster edges (targets relabeled to cluster ids, witnesses
  // carried along) to the front of each piece's subrange.
  const parallel::frontier_result run = parallel::frontier_edge_for<claim_rec>(
      frontier_size, deg_of, out.claims, ws,
      [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
          parallel::emitter<claim_rec>& em) -> uint32_t {
        const vertex_id v = frontier[fi];
        const vertex_id my_label = C[v];
        const edge_id start = V[v];
        uint32_t k = jlo;
        for (uint32_t i = jlo; i < jhi; ++i) {
          const vertex_id w = E[start + i];
          vertex_id w_label;
          const vertex_id cw = atomic_load(&C[w]);
          if (cw == kNoVertex) {
            const uint64_t rank = (static_cast<uint64_t>(fi) << 32) | i;
            if (serial || claim[w] == rank) {
              // Rank winner: claim w. The witness is an original edge and
              // joins the forest.
              atomic_store(&C[w], my_label);
              em({w, sink.witness_of(v, start + i, w)});
              continue;
            }
            // Loser: the winner's label, computed from stable data
            // (claim[w] is post-phase-A, frontier labels are pre-round)
            // whether or not the winner's store above has landed yet.
            w_label = C[frontier[claim[w] >> 32]];
          } else {
            w_label = cw;
          }
          if (w_label != my_label) {
            // lint: private-write(piece owns slots [jlo, jhi) of v)
            E[start + k] = w_label;
            // lint: private-write(same piece-subrange invariant)
            witness[start + k] = sink.witness_of(v, start + i, w);
            ++k;
          }
        }
        if (jlo == 0 && jhi == deg) {
          // lint: private-write(whole-vertex piece: sole writer)
          D[v] = k;
          resolved[v] = 1;  // lint: private-write(same owner)
        }
        return k - jlo;
      });
  internal::stitch_split_pieces(
      run, wg, [&](uint32_t fi) { return frontier[fi]; }, witness, resolved);
  std::span<uint64_t> forest = sink.forest.subspan(sink.count);
  parallel_for(0, run.emitted, [&](size_t i) {
    next[i] = out.claims[i].w;
    forest[i] = out.claims[i].witness;
  });
  out.sink.count += run.emitted;
  return run.emitted;
}

template <typename Out>
decomp_info arb_traversal(work_graph& wg, const options& opt,
                          std::span<vertex_id> cluster, Out& out,
                          parallel::workspace& ws, parallel::phase_timer* pt) {
  const size_t n = wg.n;
  decomp_info res;
  if (n == 0) return res;
  std::span<const edge_id> V = wg.offsets;
  std::span<vertex_id> E = wg.edges;
  std::span<vertex_id> D = wg.degrees;
  std::span<vertex_id> C = cluster;
  parallel_for(0, n, [&](size_t v) { C[v] = kNoVertex; });  // the paper's inf

  timer t;
  parallel::workspace::scope outer(ws);
  internal::shift_schedule schedule(n, opt);
  std::span<vertex_id> frontier = ws.take<vertex_id>(n);
  std::span<vertex_id> next = ws.take<vertex_id>(n);
  size_t frontier_size = 0;
  const size_t dense_cutoff = static_cast<size_t>(
      opt.dense_threshold * static_cast<double>(n));
  // No frontier exceeds n, so a cutoff of n or more is Decomp-Arb proper:
  // every round is write-based.
  const bool dense_on = dense_cutoff < n;
  // resolved[v]: v's adjacency prefix was compacted/relabeled by a
  // write-based round; unresolved vertices go through filterEdges.
  std::span<uint8_t> resolved = ws.take_zeroed<uint8_t>(n);
  // Bit-packed frontier membership for the dense (pull) rounds, and the
  // shrinking list of still-unvisited vertices, maintained lazily: built at
  // the first dense round, compacted (pure two-pass, so the order stays
  // ascending) at each one after that.
  const size_t num_words = (n + 63) / 64;
  std::span<uint64_t> on_frontier = ws.take<uint64_t>(num_words);
  std::span<vertex_id> unvisited = ws.take<vertex_id>(n);
  std::span<vertex_id> unvisited_next = ws.take<vertex_id>(n);
  size_t unvisited_size = 0;
  bool have_unvisited = false;
  out.init(n, ws);
  if (pt != nullptr) pt->add("init", t.lap());

  size_t num_visited = 0;
  size_t round = 0;
  while (num_visited < n) {
    // bfsPre: start BFS's at the unvisited vertices whose shift value fell
    // into this round, appending them to the shared frontier array.
    t.start();
    const size_t added = internal::add_new_centers(
        schedule, round, frontier, frontier_size, ws,
        [&](vertex_id v) { return C[v] == kNoVertex; },
        [&](vertex_id v) { C[v] = v; });
    res.num_clusters += added;
    frontier_size += added;
    // Every frontier member was first visited this round (carried-over
    // vertices were claimed during the previous round's edge phase).
    num_visited += frontier_size;
    if (pt != nullptr) pt->add("bfsPre", t.lap());

    if (frontier_size > dense_cutoff) {
      // Read-based (dense) round.
      ++res.num_dense_rounds;
      // Refresh the unvisited list: drop everything claimed since the last
      // dense round (sparse-round claims, new centers). C is stable here,
      // so the pure two-pass emission is safe and keeps ascending order.
      if (!have_unvisited) {
        unvisited_size = parallel::count_then_emit<vertex_id>(
            n, unvisited, ws, [&](size_t v, auto& em) {
              if (C[v] == kNoVertex) em(static_cast<vertex_id>(v));
            });
        have_unvisited = true;
      } else {
        unvisited_size = parallel::count_then_emit<vertex_id>(
            unvisited_size, unvisited_next, ws, [&](size_t i, auto& em) {
              const vertex_id v = unvisited[i];
              if (C[v] == kNoVertex) em(v);
            });
        std::swap(unvisited, unvisited_next);
      }
      // Publish the frontier as a bitmap: zero n/8 bytes, then set one bit
      // per member (atomic OR — distinct members can share a word).
      parallel_for(0, num_words, [&](size_t w) {
        on_frontier[w] = 0;  // lint: private-write(iteration w owns word w)
      });
      parallel_for(0, frontier_size, [&](size_t i) {
        const vertex_id v = frontier[i];
        parallel::fetch_or(&on_frontier[v >> 6], uint64_t{1} << (v & 63));
      });
      // Pull: only the still-unvisited vertices scan for a frontier
      // neighbour (the early exit keeps hub scans short, so this loop
      // stays at vertex granularity). v is unvisited, so its adjacency is
      // still raw: the adopting slot's witness is the edge that claimed v.
      parallel_for(0, unvisited_size, [&](size_t i) {
        const vertex_id v = unvisited[i];
        const edge_id start = V[v];
        const vertex_id deg = D[v];
        for (vertex_id j = 0; j < deg; ++j) {
          const vertex_id u = E[start + j];
          if ((on_frontier[u >> 6] >> (u & 63)) & 1) {
            // C[u] is stable: frontier labels were fixed before this phase.
            // lint: private-write(unvisited holds distinct vertex ids)
            C[v] = C[u];
            if constexpr (Out::kForest) {
              // lint: private-write(same owner invariant)
              out.dense_wit[v] = out.sink.witness_of(v, start + j, u);
            }
            break;  // direction-optimization early exit
          }
        }
      });
      // The claimed members of the list are the next frontier; the rest
      // stay unvisited. Both passes are pure reads of C.
      const size_t gathered = parallel::count_then_emit<vertex_id>(
          unvisited_size, next, ws, [&](size_t i, auto& em) {
            const vertex_id v = unvisited[i];
            if (C[v] != kNoVertex) em(v);
          });
      unvisited_size = parallel::count_then_emit<vertex_id>(
          unvisited_size, unvisited_next, ws, [&](size_t i, auto& em) {
            const vertex_id v = unvisited[i];
            if (C[v] == kNoVertex) em(v);
          });
      std::swap(unvisited, unvisited_next);
      if constexpr (Out::kForest) {
        std::span<uint64_t> forest = out.sink.forest.subspan(out.sink.count);
        parallel_for(0, gathered, [&](size_t i) {
          forest[i] = out.dense_wit[next[i]];
        });
        out.sink.count += gathered;
      }
      std::swap(frontier, next);
      frontier_size = gathered;
      if (pt != nullptr) pt->add("bfsDense", t.lap());
    } else {
      // Write-based (sparse) round: the one place the outputs differ.
      const size_t next_size =
          sparse_round(out, wg, C, resolved, frontier, frontier_size, next, ws);
      std::swap(frontier, next);
      frontier_size = next_size;
      if (pt != nullptr) pt->add(dense_on ? "bfsSparse" : "bfsMain", t.lap());
    }
    ++round;
  }

  // filterEdges: resolve the adjacency (and witness slice) of every vertex
  // that was never processed write-based, i.e. visited in a dense round.
  // Edge-balanced like the rounds themselves: an unresolved hub's scan is
  // split across chunks instead of serializing the pass.
  if (dense_on) {
    t.start();
    if (res.num_dense_rounds > 0) {
      parallel::workspace::scope filter_scope(ws);
      std::span<uint64_t> witness;  // stays empty for labels only
      if constexpr (Out::kForest) witness = out.sink.witness;
      const parallel::frontier_result run = parallel::frontier_edge_for(
          n, [&](size_t v) { return D[v]; }, ws,
          [&](size_t vi, uint32_t jlo, uint32_t jhi,
              uint32_t deg) -> uint32_t {
            const vertex_id v = static_cast<vertex_id>(vi);
            const edge_id start = V[v];
            if (resolved[v]) {
              // Already relabeled by a sparse round. "Kept" the whole
              // piece: fix_split_pieces then never moves slots of a
              // resolved vertex and republishes D[v] unchanged.
              return jhi - jlo;
            }
            const vertex_id my_label = C[v];
            uint32_t k = jlo;
            for (uint32_t i = jlo; i < jhi; ++i) {
              const vertex_id w = E[start + i];  // raw: never relabeled
              const vertex_id w_label = C[w];
              if (w_label != my_label) {
                // lint: private-write(piece owns slots [jlo, jhi) of v)
                E[start + k] = w_label;
                if constexpr (Out::kForest) {
                  // lint: private-write(same piece-subrange invariant)
                  witness[start + k] = out.sink.witness_of(v, start + i, w);
                }
                ++k;
              }
            }
            if (jlo == 0 && jhi == deg) {
              // lint: private-write(whole-vertex piece: sole writer of D[v])
              D[v] = k;
            }
            return k - jlo;
          });
      internal::stitch_split_pieces(
          run, wg, [](uint32_t vi) { return static_cast<vertex_id>(vi); },
          witness, {});
    }
    if (pt != nullptr) pt->add("filterEdges", t.lap());
  }

  res.num_rounds = round;
  res.edges_kept = parallel::reduce_sum_ws<size_t>(
      n, [&](size_t v) { return D[v]; }, ws);
  return res;
}

// Decomp-Arb's options: the caller's, with the dense rounds turned off.
options sparse_only(options opt) {
  opt.dense_threshold = 1.0;
  return opt;
}

}  // namespace

decomp_info decomp_arb_hybrid_into(work_graph& wg, const options& opt,
                                   std::span<vertex_id> cluster,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt) {
  labels_only out;
  return arb_traversal(wg, opt, cluster, out, ws, pt);
}

decomp_info decomp_arb_hybrid_into(work_graph& wg, const options& opt,
                                   std::span<vertex_id> cluster,
                                   forest_sink& forest,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt) {
  forest_output out{forest};
  return arb_traversal(wg, opt, cluster, out, ws, pt);
}

result decomp_arb_hybrid(work_graph& wg, const options& opt,
                         parallel::phase_timer* pt) {
  std::vector<vertex_id> cluster(wg.n);
  parallel::workspace ws;
  const decomp_info info = decomp_arb_hybrid_into(wg, opt, cluster, ws, pt);
  return internal::to_result(std::move(cluster), info);
}

result decompose_arb_hybrid(const graph::graph& g, const options& opt) {
  work_graph wg = work_graph::from(g);
  return decomp_arb_hybrid(wg, opt, nullptr);
}

decomp_info decomp_arb_into(work_graph& wg, const options& opt,
                            std::span<vertex_id> cluster,
                            parallel::workspace& ws,
                            parallel::phase_timer* pt) {
  return decomp_arb_hybrid_into(wg, sparse_only(opt), cluster, ws, pt);
}

result decomp_arb(work_graph& wg, const options& opt,
                  parallel::phase_timer* pt) {
  return decomp_arb_hybrid(wg, sparse_only(opt), pt);
}

result decompose_arb(const graph::graph& g, const options& opt) {
  return decompose_arb_hybrid(g, sparse_only(opt));
}

}  // namespace pcc::ldd
