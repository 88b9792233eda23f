// Decomp-Arb-Hybrid: Decomp-Arb with direction-optimizing traversal
// (Beamer et al.; Ligra-style), as described in Section 4 of the paper.
//
// When the frontier holds more than `dense_threshold` of the vertices the
// round switches to a read-based computation: every unvisited vertex scans
// its neighbours and adopts the cluster of the first one it finds on the
// frontier, then exits the scan early. The read direction is more
// cache-friendly and needs no atomics, but it leaves edge statuses
// undetermined, so a post-processing pass (filterEdges) resolves the edges
// of every vertex that was never processed in a write-based round. A
// per-vertex `resolved` flag records which adjacencies a write-based round
// already relabeled, so filterEdges leaves those untouched.
//
// Dense rounds iterate a *shrinking* unvisited list instead of rescanning
// all n vertices every round, and test frontier membership against a
// bit-packed frontier (n/8 bytes, cache-resident for the graphs the paper
// measures) instead of a byte flag per vertex. Write-based rounds and
// filterEdges are edge-balanced via frontier_edge_for, so hub vertices are
// split across chunks and the next frontier is emitted without a shared
// cursor.

#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"

namespace pcc::ldd {

namespace {
using parallel::atomic_load;
using parallel::cas;
using parallel::parallel_for;
using parallel::timer;
}  // namespace

decomp_info decomp_arb_hybrid_into(work_graph& wg, const options& opt,
                                   std::span<vertex_id> cluster,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt) {
  const size_t n = wg.n;
  decomp_info res;
  if (n == 0) return res;
  std::span<const edge_id> V = wg.offsets;
  std::span<vertex_id> E = wg.edges;
  std::span<vertex_id> D = wg.degrees;
  std::span<vertex_id> C = cluster;
  parallel_for(0, n, [&](size_t v) { C[v] = kNoVertex; });

  timer t;
  parallel::workspace::scope outer(ws);
  internal::shift_schedule schedule(n, opt);
  std::span<vertex_id> frontier = ws.take<vertex_id>(n);
  std::span<vertex_id> next = ws.take<vertex_id>(n);
  size_t frontier_size = 0;
  // resolved[v]: v's adjacency prefix was compacted/relabeled by a
  // write-based round; unresolved vertices go through filterEdges.
  std::span<uint8_t> resolved = ws.take_zeroed<uint8_t>(n);
  // Bit-packed frontier membership for the dense (pull) rounds.
  const size_t num_words = (n + 63) / 64;
  std::span<uint64_t> on_frontier = ws.take<uint64_t>(num_words);
  // Shrinking list of still-unvisited vertices, maintained lazily: built at
  // the first dense round, compacted (pure two-pass, so the order stays
  // ascending) at each one after that.
  std::span<vertex_id> unvisited = ws.take<vertex_id>(n);
  std::span<vertex_id> unvisited_next = ws.take<vertex_id>(n);
  size_t unvisited_size = 0;
  bool have_unvisited = false;
  const size_t dense_cutoff = static_cast<size_t>(
      opt.dense_threshold * static_cast<double>(n));
  if (pt != nullptr) pt->add("init", t.lap());

  size_t num_visited = 0;
  size_t round = 0;
  while (num_visited < n) {
    t.start();
    const size_t added = internal::add_new_centers(
        schedule, round, frontier, frontier_size, ws,
        [&](vertex_id v) { return C[v] == kNoVertex; },
        [&](vertex_id v) { C[v] = v; });
    res.num_clusters += added;
    frontier_size += added;
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
      // stays at vertex granularity).
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
      std::swap(frontier, next);
      frontier_size = gathered;
      if (pt != nullptr) pt->add("bfsDense", t.lap());
    } else {
      // Write-based (sparse) round: identical to Decomp-Arb, plus the
      // resolved[v] flag recording "already relabeled".
      parallel::workspace::scope round_scope(ws);
      const parallel::frontier_result run =
          parallel::frontier_edge_for<vertex_id>(
              frontier_size, [&](size_t fi) { return D[frontier[fi]]; }, next,
              ws,
              [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
                  parallel::emitter<vertex_id>& em) -> uint32_t {
                const vertex_id v = frontier[fi];
                // Local raw pointers: the CAS is a compiler barrier that
                // forces captured spans to be re-read every edge; a
                // non-escaping local stays in a register across it.
                vertex_id* const cl = C.data();
                vertex_id* const ed = E.data();
                const vertex_id my_label = cl[v];
                const edge_id start = V[v];
                uint32_t k = jlo;
                for (uint32_t i = jlo; i < jhi; ++i) {
                  const vertex_id w = ed[start + i];
                  if (atomic_load(&cl[w]) == kNoVertex &&
                      cas(&cl[w], kNoVertex, my_label)) {
                    em(w);
                  } else {
                    const vertex_id w_label = atomic_load(&cl[w]);
                    if (w_label != my_label) {
                      // lint: private-write(piece owns slots [jlo, jhi) of v)
                      ed[start + k] = w_label;
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
      parallel::fix_split_pieces(
          run.partials,
          [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
            const edge_id start = V[frontier[fi]];
            // lint: private-write(leader task owns entry fi's CSR slice)
            std::copy(E.begin() + start + src, E.begin() + start + src + len,
                      E.begin() + start + dst);
          },
          [&](uint32_t fi, uint32_t kept) {
            const vertex_id v = frontier[fi];
            // lint: private-write(one leader task per split vertex)
            D[v] = kept;
            resolved[v] = 1;  // lint: private-write(same owner invariant)
          });
      std::swap(frontier, next);
      frontier_size = run.emitted;
      if (pt != nullptr) pt->add("bfsSparse", t.lap());
    }
    ++round;
  }

  // filterEdges: resolve the adjacency of every vertex that was never
  // processed write-based (it was visited in a dense round, or its round's
  // write pass was skipped entirely).
  // Edge-balanced like the rounds themselves: an unresolved hub's scan is
  // split across chunks instead of serializing the pass.
  t.start();
  {
    parallel::workspace::scope filter_scope(ws);
    const parallel::frontier_result run = parallel::frontier_edge_for(
        n, [&](size_t v) { return D[v]; }, ws,
        [&](size_t vi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          const vertex_id v = static_cast<vertex_id>(vi);
          const edge_id start = V[v];
          if (resolved[v]) {
            // Already relabeled by a sparse round. "Kept" the whole piece:
            // fix_split_pieces then never moves slots of a resolved vertex
            // and republishes D[v] unchanged.
            return jhi - jlo;
          }
          const vertex_id my_label = C[v];
          uint32_t k = jlo;
          for (uint32_t i = jlo; i < jhi; ++i) {
            const vertex_id w = E[start + i];  // raw target: never relabeled
            const vertex_id w_label = C[w];
            if (w_label != my_label) {
              // lint: private-write(piece owns slots [jlo, jhi) of v)
              E[start + k] = w_label;
              ++k;
            }
          }
          if (jlo == 0 && jhi == deg) {
            // lint: private-write(whole-vertex piece: sole writer of D[v])
            D[v] = k;
          }
          return k - jlo;
        });
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t vi, uint32_t dst, uint32_t src, uint32_t len) {
          const edge_id start = V[vi];
          // lint: private-write(leader task owns entry vi's CSR slice)
          std::copy(E.begin() + start + src, E.begin() + start + src + len,
                    E.begin() + start + dst);
        },
        [&](uint32_t vi, uint32_t kept) {
          // lint: private-write(one leader task per split vertex)
          D[vi] = kept;
        });
  }
  if (pt != nullptr) pt->add("filterEdges", t.lap());

  res.num_rounds = round;
  res.edges_kept = parallel::reduce_sum_ws<size_t>(
      n, [&](size_t v) { return D[v]; }, ws);
  return res;
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

}  // namespace pcc::ldd
