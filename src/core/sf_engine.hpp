// Reusable executor for the witness-carrying decompose-contract pipeline:
// connectivity labels AND a spanning forest of original-graph edges in one
// pass, with the same arena discipline as cc_engine.
//
// The algorithm is the paper's Algorithm 1 with one extra invariant: every
// directed edge slot of every level graph carries a *witness*, the
// original-graph edge that realizes it (level 0: the edge itself; level
// L+1: the witness of the minimum-gather-rank duplicate that survived
// contraction dedup at level L). Within each level the BFS claim edges form
// a tree of every cluster, so their witnesses join the forest; per level
// that adds n_l - (#clusters_l) edges, telescoping to n - #components.
//
// Determinism: unlike the connectivity decompositions (whose CAS claim
// races are benign because ANY claimer yields correct components), a forest
// edge's identity depends on WHICH claim wins. The engine therefore resolves
// claims with a two-phase protocol — propose the minimum (frontier index,
// adjacency slot) rank per target with an atomic write_min, then let exactly
// the rank winner claim — so the forest is a pure function of (graph,
// options), identical across worker counts. The witness-preserving
// contraction dedup keeps the minimum-gather-rank witness on both routes
// (see contract.hpp), preserving the property across levels.
//
// State lives in the same three-arena layout as cc_engine (persist_ /
// scratch_ / graph_[2]); after a warm-up run, run() performs no heap
// allocation (tests/core/test_sf_engine.cpp verifies with an operator-new
// counting hook).
#pragma once

#include <span>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::cc {

class sf_engine {
 public:
  explicit sf_engine(const cc_options& opt = {}) : opt_(opt) {}

  // Labels and forest from one run(); both views stay valid until the next
  // run()/reserve() call or the engine's destruction.
  struct result {
    // labels[v] = component representative of v, size g.num_vertices();
    // identical to connected_components(g, opt) up to representative
    // choice (the SF decomposition picks its own centers).
    std::span<const vertex_id> labels;
    // Spanning-forest edges as (u, v) pairs of original vertex ids;
    // exactly n - #components of them, in deterministic order.
    std::span<const graph::edge> forest;
  };

  // Pre-size the arenas for a graph with n vertices and m directed edges so
  // the first run() mostly avoids mid-flight chunk chaining. Optional: the
  // arenas self-size from the first run's high-water mark regardless.
  void reserve(size_t n, size_t m);

  result run(const graph::graph& g, cc_stats* stats = nullptr);

  // Per-run options (the registry shares one engine across calls, so
  // beta/seed/shifts travel with the call). The decomposition is always the
  // claim-based (Decomp-Arb) one — opt.variant does not apply here, and
  // opt.dedup_route steers the witness-preserving dedup.
  result run(const graph::graph& g, const cc_options& opt,
             cc_stats* stats = nullptr);

  // The forest from the most recent run() (empty before the first run).
  std::span<const graph::edge> last_forest() const {
    return {forest_storage_.data(), forest_storage_.size()};
  }

  const cc_options& options() const { return opt_; }

 private:
  // Lift state recorded per level, read back bottom-up by the lift pass.
  struct level_frame {
    std::span<const vertex_id> cluster;  // size n (this level's graph)
    std::span<const vertex_id> new_id;   // size n
    std::span<const vertex_id> rep;      // size k (next level's graph)
    size_t n = 0;
  };

  cc_options opt_;
  parallel::workspace persist_;
  parallel::workspace scratch_;
  parallel::workspace graph_[2];
  std::vector<level_frame> frames_;
  // The unpacked forest; capacity survives runs (determinism makes the
  // size identical run to run, so after warm-up the resize never grows).
  std::vector<graph::edge> forest_storage_;
};

}  // namespace pcc::cc
