// Iterative witness-carrying engine: DECOMP + CONTRACT per level going up
// (claim witnesses joining the forest at every BFS round), RELABELUP back
// down the recorded level stack. Structurally a twin of cc_engine.cpp; the
// differences are the deterministic two-phase claim resolution and the
// witness arrays threaded alongside every level graph.

#include "core/sf_engine.hpp"

#include <cassert>

#include "core/contract.hpp"
#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"
#include "parallel/timer.hpp"

namespace pcc::cc {

namespace {

using parallel::atomic_load;
using parallel::atomic_store;
using parallel::parallel_for;

inline uint64_t pack_witness(vertex_id u, vertex_id v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}
inline graph::edge unpack_witness(uint64_t w) {
  return {static_cast<vertex_id>(w >> 32), static_cast<vertex_id>(w)};
}

// A resolved claim from one BFS round: the claimed vertex (joins the next
// frontier) and the witness of the claiming edge (joins the forest).
struct claim_rec {
  vertex_id w;
  uint64_t witness;
};

// Deterministic direction-optimizing Decomp-Arb over a level graph with
// witnesses (the sf twin of decomp_arb_hybrid_into). `witness` parallels
// wg.edges; both are compacted in place (targets relabeled to cluster
// ids) so the post-decomposition state satisfies the witness contract_into
// overload's invariant. Claim witnesses are appended to `forest` at
// forest_count, which is advanced.
//
// Dense (pull) rounds are deterministic for free: each still-unvisited
// vertex scans its own adjacency for the FIRST frontier neighbour in slot
// order and adopts that cluster — a private write, no race, and a pure
// function of the previous round's state — and the witness of the
// adopting edge is just witness[slot]. The round-mode choice (frontier
// size vs dense_threshold * n) is itself a pure function of deterministic
// state, so the mixed schedule replays identically across runs and worker
// counts.
//
// Sparse (write-based) claim resolution is two-phase per round:
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
// claim[] needs no reset across rounds: claim[w] is only ever consulted
// while C[w] is unvisited, and a vertex is claimed at most once.
//
// At one worker, phase A is skipped and phase B claims on first arrival:
// the serial traversal meets edges in flattened order, so the first
// proposer IS the minimum rank and the outcome matches the two-phase
// protocol exactly.
// `identity_witness` (level 0 of the engine): incoming edge slots carry no
// stored witness — the witness of slot (v, j) IS pack(v, raw_target) — so
// the initial m-slot stamping sweep is skipped and `witness` is written
// only for slots that survive compaction (exactly what contract reads).
ldd::decomp_info decomp_arb_sf_into(ldd::work_graph& wg,
                                    std::span<uint64_t> witness,
                                    bool identity_witness,
                                    const ldd::options& opt,
                                    std::span<vertex_id> cluster,
                                    std::span<uint64_t> forest,
                                    size_t& forest_count,
                                    parallel::workspace& ws,
                                    parallel::phase_timer* pt) {
  const size_t n = wg.n;
  ldd::decomp_info info;
  if (n == 0) return info;
  parallel::timer t;
  std::span<vertex_id> C = cluster;
  parallel_for(0, n, [&](size_t v) {
    C[v] = kNoVertex;  // lint: private-write(owner index v)
  });
  const bool serial = parallel::num_workers() <= 1;

  ldd::internal::shift_schedule schedule(n, opt);
  std::span<vertex_id> frontier = ws.take<vertex_id>(n);
  std::span<vertex_id> next = ws.take<vertex_id>(n);
  // At most n claims happen across the whole decomposition (each vertex is
  // claimed once), but one ROUND can see any frontier; size for n.
  std::span<claim_rec> claims = ws.take<claim_rec>(n);
  // Proposal ranks; ~0 is the write_min identity. Initialized once — see
  // the no-reset argument above.
  std::span<uint64_t> claim =
      serial ? std::span<uint64_t>{} : ws.take_filled<uint64_t>(n, ~uint64_t{0});
  // resolved[v]: v's adjacency prefix was compacted/relabeled by a sparse
  // round; unresolved vertices go through the final filter pass.
  std::span<uint8_t> resolved = ws.take_zeroed<uint8_t>(n);
  // Dense-round state: bit-packed frontier membership, the shrinking
  // unvisited list, and the witness each vertex was claimed through.
  const size_t num_words = (n + 63) / 64;
  std::span<uint64_t> on_frontier = ws.take<uint64_t>(num_words);
  std::span<vertex_id> unvisited = ws.take<vertex_id>(n);
  std::span<vertex_id> unvisited_next = ws.take<vertex_id>(n);
  std::span<uint64_t> dense_wit = ws.take<uint64_t>(n);
  size_t unvisited_size = 0;
  bool have_unvisited = false;
  const size_t dense_cutoff =
      static_cast<size_t>(opt.dense_threshold * static_cast<double>(n));
  size_t frontier_size = 0;
  if (pt != nullptr) pt->add("init", t.lap());

  size_t num_visited = 0;
  size_t round = 0;
  while (num_visited < n) {
    t.start();
    const size_t added = ldd::internal::add_new_centers(
        schedule, round, frontier, frontier_size, ws,
        [&](vertex_id v) { return C[v] == kNoVertex; },
        [&](vertex_id v) { C[v] = v; });
    info.num_clusters += added;
    frontier_size += added;
    num_visited += frontier_size;
    if (pt != nullptr) pt->add("bfsPre", t.lap());

    if (frontier_size > dense_cutoff) {
      // Read-based (dense) round — see decomp_arb_hybrid.cpp for the list
      // and bitmap maintenance; only the witness capture is new here.
      ++info.num_dense_rounds;
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
      parallel_for(0, num_words, [&](size_t w) {
        on_frontier[w] = 0;  // lint: private-write(iteration w owns word w)
      });
      parallel_for(0, frontier_size, [&](size_t i) {
        const vertex_id v = frontier[i];
        parallel::fetch_or(&on_frontier[v >> 6], uint64_t{1} << (v & 63));
      });
      // Pull: v adopts the first frontier neighbour in slot order. v is
      // unvisited, so its adjacency (and witness slice) is still raw —
      // witness[start + j] IS the original edge that claimed v.
      parallel_for(0, unvisited_size, [&](size_t i) {
        const vertex_id v = unvisited[i];
        const edge_id start = wg.offsets[v];
        const vertex_id deg = wg.degrees[v];
        for (vertex_id j = 0; j < deg; ++j) {
          const vertex_id u = wg.edges[start + j];
          if ((on_frontier[u >> 6] >> (u & 63)) & 1) {
            // lint: private-write(unvisited holds distinct vertex ids)
            C[v] = C[u];
            // lint: private-write(same owner invariant)
            dense_wit[v] =
                identity_witness ? pack_witness(v, u) : witness[start + j];
            break;
          }
        }
      });
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
      parallel_for(0, gathered, [&](size_t i) {
        // lint: private-write(iteration i owns slot forest_count + i)
        forest[forest_count + i] = dense_wit[next[i]];
      });
      forest_count += gathered;
      std::swap(frontier, next);
      frontier_size = gathered;
      if (pt != nullptr) pt->add("bfsDense", t.lap());
      ++round;
      continue;
    }

    size_t next_size = 0;
    {
      parallel::workspace::scope round_scope(ws);
      const auto deg_of = [&](size_t fi) { return wg.degrees[frontier[fi]]; };

      if (!serial) {
        // Phase A: propose. No writes to C, no compaction — partial pieces
        // need no stitching.
        parallel::frontier_edge_for(
            frontier_size, deg_of, ws,
            [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t) -> uint32_t {
              const vertex_id v = frontier[fi];
              const edge_id start = wg.offsets[v];
              for (uint32_t i = jlo; i < jhi; ++i) {
                const vertex_id w = wg.edges[start + i];
                if (atomic_load(&C[w]) == kNoVertex) {
                  parallel::write_min(
                      &claim[w], (static_cast<uint64_t>(fi) << 32) | i);
                }
              }
              return 0;
            });
      }

      // Phase B: resolve claims, emit them, and compact the surviving
      // inter-cluster edges (targets relabeled to cluster ids, witnesses
      // carried along) to the front of each piece's subrange.
      const parallel::frontier_result run =
          parallel::frontier_edge_for<claim_rec>(
              frontier_size, deg_of, claims, ws,
              [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
                  parallel::emitter<claim_rec>& em) -> uint32_t {
                const vertex_id v = frontier[fi];
                const vertex_id my_label = C[v];
                const edge_id start = wg.offsets[v];
                uint32_t k = jlo;
                for (uint32_t i = jlo; i < jhi; ++i) {
                  const vertex_id w = wg.edges[start + i];
                  vertex_id w_label;
                  const vertex_id cw = atomic_load(&C[w]);
                  if (cw == kNoVertex) {
                    const uint64_t rank =
                        (static_cast<uint64_t>(fi) << 32) | i;
                    if (serial || claim[w] == rank) {
                      // Rank winner: claim w. The witness is an original
                      // edge and joins the forest.
                      atomic_store(&C[w], my_label);
                      em({w, identity_witness ? pack_witness(v, w)
                                              : witness[start + i]});
                      continue;
                    }
                    // Loser: the winner's label, computed from stable data
                    // (claim[w] is post-phase-A, frontier labels are
                    // pre-round) whether or not the winner's store above
                    // has landed yet.
                    w_label = C[frontier[claim[w] >> 32]];
                  } else {
                    w_label = cw;
                  }
                  if (w_label != my_label) {
                    // lint: private-write(piece owns slots [jlo, jhi) of v)
                    wg.edges[start + k] = w_label;
                    // lint: private-write(same piece-subrange invariant)
                    witness[start + k] = identity_witness
                                             ? pack_witness(v, w)
                                             : witness[start + i];
                    ++k;
                  }
                }
                if (jlo == 0 && jhi == deg) {
                  // lint: private-write(whole-vertex piece: sole writer)
                  wg.degrees[v] = k;
                  resolved[v] = 1;  // lint: private-write(same owner)
                }
                return k - jlo;
              });
      parallel::fix_split_pieces(
          run.partials,
          [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
            const edge_id start = wg.offsets[frontier[fi]];
            // lint: private-write(leader task owns entry fi's CSR slice)
            std::copy(wg.edges.begin() + start + src,
                      wg.edges.begin() + start + src + len,
                      wg.edges.begin() + start + dst);
            // lint: private-write(same leader-owned slice, witness array)
            std::copy(witness.begin() + start + src,
                      witness.begin() + start + src + len,
                      witness.begin() + start + dst);
          },
          [&](uint32_t fi, uint32_t kept) {
            const vertex_id v = frontier[fi];
            // lint: private-write(one leader task per split vertex)
            wg.degrees[v] = kept;
            resolved[v] = 1;  // lint: private-write(same owner invariant)
          });
      next_size = run.emitted;
    }

    parallel_for(0, next_size, [&](size_t i) {
      // lint: private-write(iteration i owns slot i of both outputs)
      next[i] = claims[i].w;
      // lint: private-write(iteration i owns slot forest_count + i)
      forest[forest_count + i] = claims[i].witness;
    });
    forest_count += next_size;
    std::swap(frontier, next);
    frontier_size = next_size;
    if (pt != nullptr) pt->add("bfsSparse", t.lap());
    ++round;
  }

  // Filter pass: resolve the adjacency (and witness slice) of every vertex
  // never processed write-based. The sf twin of decomp_arb_hybrid's
  // filterEdges, moving witnesses alongside the kept edges.
  t.start();
  {
    parallel::workspace::scope filter_scope(ws);
    const parallel::frontier_result run = parallel::frontier_edge_for(
        n, [&](size_t v) { return wg.degrees[v]; }, ws,
        [&](size_t vi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          const vertex_id v = static_cast<vertex_id>(vi);
          const edge_id start = wg.offsets[v];
          if (resolved[v]) {
            // Already relabeled by a sparse round. "Kept" the whole piece:
            // fix_split_pieces then never moves slots of a resolved vertex
            // and republishes D[v] unchanged.
            return jhi - jlo;
          }
          const vertex_id my_label = C[v];
          uint32_t k = jlo;
          for (uint32_t i = jlo; i < jhi; ++i) {
            const vertex_id w = wg.edges[start + i];  // raw: never relabeled
            const vertex_id w_label = C[w];
            if (w_label != my_label) {
              // lint: private-write(piece owns slots [jlo, jhi) of v)
              wg.edges[start + k] = w_label;
              // lint: private-write(same piece-subrange invariant)
              witness[start + k] = identity_witness ? pack_witness(v, w)
                                                    : witness[start + i];
              ++k;
            }
          }
          if (jlo == 0 && jhi == deg) {
            // lint: private-write(whole-vertex piece: sole writer of D[v])
            wg.degrees[v] = k;
          }
          return k - jlo;
        });
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t vi, uint32_t dst, uint32_t src, uint32_t len) {
          const edge_id start = wg.offsets[vi];
          // lint: private-write(leader task owns entry vi's CSR slice)
          std::copy(wg.edges.begin() + start + src,
                    wg.edges.begin() + start + src + len,
                    wg.edges.begin() + start + dst);
          // lint: private-write(same leader-owned slice, witness array)
          std::copy(witness.begin() + start + src,
                    witness.begin() + start + src + len,
                    witness.begin() + start + dst);
        },
        [&](uint32_t vi, uint32_t kept) {
          // lint: private-write(one leader task per split vertex)
          wg.degrees[vi] = kept;
        });
  }
  if (pt != nullptr) pt->add("filterEdges", t.lap());

  info.num_rounds = round;
  info.edges_kept = parallel::reduce_sum_ws<size_t>(
      n, [&](size_t v) { return wg.degrees[v]; }, ws);
  return info;
}

}  // namespace

void sf_engine::reserve(size_t n, size_t m) {
  persist_.reset();
  scratch_.reset();
  graph_[0].reset();
  graph_[1].reset();
  frames_.clear();
  // cc_engine's heuristics plus the witness arrays: one uint64 per edge
  // slot in each graph arena, one packed forest slot per vertex in
  // persist_, and the witness_pair gather array in scratch_.
  persist_.reserve(sizeof(vertex_id) * 4 * n + sizeof(uint64_t) * n);
  graph_[0].reserve(sizeof(vertex_id) * (m + n) + sizeof(uint64_t) * m);
  graph_[1].reserve(sizeof(vertex_id) * (m + n) + sizeof(uint64_t) * m);
  scratch_.reserve(sizeof(vertex_id) * 16 * n + 24 * m);
  frames_.reserve(opt_.max_levels);
  forest_storage_.reserve(n);
}

sf_engine::result sf_engine::run(const graph::graph& g, cc_stats* stats) {
  return run(g, opt_, stats);
}

sf_engine::result sf_engine::run(const graph::graph& g, const cc_options& opt,
                                 cc_stats* stats) {
  const size_t n0 = g.num_vertices();
  const size_t m0 = g.num_edges();

  persist_.reset();
  scratch_.reset();
  graph_[0].reset();
  graph_[1].reset();
  frames_.clear();
  frames_.reserve(opt.max_levels);
  forest_storage_.clear();

  if (n0 == 0) return {};
  std::span<vertex_id> labels = persist_.take<vertex_id>(n0);
  // The forest holds n0 - #components < n0 packed witnesses; claims append
  // here round by round, the fallback appends serially.
  std::span<uint64_t> forest = persist_.take<uint64_t>(n0);
  size_t forest_count = 0;
  if (m0 == 0) {
    parallel_for(0, n0,
                 [&](size_t v) { labels[v] = static_cast<vertex_id>(v); });
    return {labels, {}};
  }

  // Level-0 working graph: offsets borrowed from g; edges copied (the
  // decomposition compacts them in place). The witness array is NOT
  // pre-stamped — level 0 runs the decomposition in identity-witness mode
  // (witness of slot (v, j) = the edge itself), which writes witnesses
  // only into slots that survive compaction.
  std::span<vertex_id> edges0 = graph_[0].take<vertex_id>(m0);
  std::span<vertex_id> degrees0 = graph_[0].take<vertex_id>(n0);
  std::span<uint64_t> witness0 = graph_[0].take<uint64_t>(m0);
  const std::vector<vertex_id>& ge = g.edges();
  parallel_for(0, m0, [&](size_t i) { edges0[i] = ge[i]; });
  const std::vector<edge_id>& go = g.offsets();
  parallel_for(0, n0, [&](size_t v) {
    degrees0[v] = g.degree(static_cast<vertex_id>(v));
  });
  ldd::work_graph cur = ldd::work_graph::over(
      n0, std::span<const edge_id>(go), edges0, degrees0);
  std::span<uint64_t> cur_witness = witness0;
  size_t cur_m = m0;
  int ping = 0;  // graph_ arena holding cur's storage

  // Go up: decompose and contract until the edges run out (or the safety
  // net engages), recording the lift state of each level.
  std::span<const vertex_id> base;  // labels of the topmost solved level
  size_t level = 0;
  while (true) {
    if (level >= opt.max_levels) {
      // Safety net: finish sequentially with union-find, keeping the
      // witness of every uniting edge.
      if (stats != nullptr) stats->used_fallback = true;
      std::span<vertex_id> fb = scratch_.take<vertex_id>(cur.n);
      std::span<vertex_id> parent = scratch_.take<vertex_id>(cur.n);
      for (size_t v = 0; v < cur.n; ++v) {
        parent[v] = static_cast<vertex_id>(v);
      }
      const auto find = [&](vertex_id x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      for (size_t u = 0; u < cur.n; ++u) {
        const edge_id start = cur.offsets[u];
        for (vertex_id i = 0; i < cur.degrees[u]; ++i) {
          const vertex_id ru = find(static_cast<vertex_id>(u));
          const vertex_id rw = find(cur.edges[start + i]);
          if (ru != rw) {
            parent[ru < rw ? rw : ru] = ru < rw ? ru : rw;
            // Level 0 runs identity-witness: slots carry no stored
            // witness, the edge is its own.
            forest[forest_count++] =
                level == 0 ? pack_witness(static_cast<vertex_id>(u),
                                          cur.edges[start + i])
                           : cur_witness[start + i];
          }
        }
      }
      for (size_t v = 0; v < cur.n; ++v) {
        fb[v] = find(static_cast<vertex_id>(v));
      }
      base = fb;
      break;
    }
    if (level > 0) {
      graph_[1 - ping].reset();
    }

    // L = DECOMP(G, beta) — claim witnesses flow into the forest here.
    std::span<vertex_id> cluster = persist_.take<vertex_id>(cur.n);
    ldd::decomp_info dec;
    {
      parallel::workspace::scope s(scratch_);
      ldd::options dopt;
      dopt.beta = opt.beta;
      dopt.shifts = opt.shifts;
      dopt.dense_threshold = opt.dense_threshold;
      // Same per-level seed schedule as cc_engine, so the two engines see
      // the same decomposition randomness for the same cc_options.
      dopt.seed = parallel::hash64(opt.seed + 0x9e37 * (level + 1));
      dec = decomp_arb_sf_into(cur, cur_witness, /*identity_witness=*/level == 0,
                               dopt, cluster, forest, forest_count, scratch_,
                               stats != nullptr ? &stats->phases : nullptr);
    }

    // G' = CONTRACT(G, L), keeping one witness per surviving pair.
    parallel::timer contract_timer;
    const contraction_view cv = contract_into(
        cur, std::span<const uint64_t>(cur_witness), cluster, opt.dedup,
        persist_, graph_[1 - ping], scratch_, opt.dedup_route);
    if (stats != nullptr) {
      stats->phases.add("contractGraph", contract_timer.elapsed());
      level_stats ls;
      ls.n = cur.n;
      ls.m = cur_m;
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
    cur_witness = cv.edge_witness;
    cur_m = cv.edges.size();
    ++level;
  }

  // Come back down (RELABELUP) — identical to cc_engine.
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
      parallel_for(0, n0, [&](size_t v) { labels[v] = base[v]; });
    }
  }
  if (stats != nullptr) {
    stats->phases.add("contractGraph", relabel_timer.elapsed());
  }

  // Publish the forest as unpacked (u, v) pairs. Determinism makes
  // forest_count identical run to run, so after warm-up the resize stays
  // within capacity and allocates nothing.
  assert(forest_count < n0);
  forest_storage_.resize(forest_count);
  parallel_for(0, forest_count, [&](size_t i) {
    // lint: private-write(iteration i owns slot i)
    forest_storage_[i] = unpack_witness(forest[i]);
  });
  return {labels, {forest_storage_.data(), forest_storage_.size()}};
}

}  // namespace pcc::cc
