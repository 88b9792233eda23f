// Locality layer: vertex relabelings that make the CSR cache-friendly.
//
// Every phase of the connectivity pipeline is memory-bound and streams over
// a CSR whose vertex order is whatever the input file (or generator)
// happened to use. On skewed inputs the hubs' label/parent words are the
// hot set, and scattering them across the id space turns every hub touch
// into a cache miss. This module builds permutations that pack that hot
// set — and the modes mirror the levers ROADMAP item 2 names:
//
//   kDegree  degree-descending: hubs first, ties in original id order
//            (stable radix sort of (max_degree - degree, id) keys).
//   kHub     hub-clustered: vertices with degree >= threshold packed
//            first in original relative order, tails after them also in
//            original relative order — cheaper than a full degree sort
//            and keeps tail locality the input already had.
//   kBfs     BFS visit order from per-component roots: neighbours get
//            nearby ids, which helps mesh/grid-shaped inputs.
//
// The contract, used by everything downstream (registry reorder wrapper,
// pcc_components --reorder): perm[old] = new, inv[new] = old, both proper
// permutations of [0, n); the relabeled graph is isomorphic to the input
// under perm, and a labeling of the relabeled graph maps back to original
// ids with map_labels_to_original (labels stay representatives of their
// component — see DESIGN.md "The locality layer").
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::graph {

enum class reorder_mode : uint8_t { kNone, kDegree, kHub, kBfs };

// Stable printable name ("none", "degree", "hub", "bfs").
const char* reorder_name(reorder_mode m);

// Parse a mode name; returns false (and leaves *out untouched) on an
// unknown name. Accepts exactly the reorder_name spellings.
bool reorder_from_name(std::string_view name, reorder_mode* out);

// Build the permutation for `mode` into caller storage (perm and inv must
// each have g.num_vertices() elements); temporaries come from `ws`
// (rewound before returning). Deterministic: a fixed input graph gives the
// same permutation at every worker count. kNone writes the identity.
void build_reorder_perm_into(const graph& g, reorder_mode mode,
                             std::span<vertex_id> perm,
                             std::span<vertex_id> inv,
                             parallel::workspace& ws);

// Relabel g under perm/inv into caller-provided CSR vectors (resized to
// n + 1 / m; capacity is reused across calls). The adjacency list of new
// vertex v' is the perm-image of inv[v']'s list, in that list's original
// order — no per-list sort, the CSR stays valid for every algorithm in the
// library (none assume sorted neighbours).
void relabel_into(const graph& g, std::span<const vertex_id> perm,
                  std::span<const vertex_id> inv,
                  std::vector<edge_id>& offsets, std::vector<vertex_id>& edges,
                  parallel::workspace& ws);

// One-shot convenience: permutation + relabeled graph.
struct reorder_result {
  graph g;                      // relabeled CSR
  std::vector<vertex_id> perm;  // perm[old] = new
  std::vector<vertex_id> inv;   // inv[new] = old
};
reorder_result reorder_graph(const graph& g, reorder_mode mode);

// Map a labeling of the relabeled graph back to original vertex ids:
// out[old] = inv[labels_new[perm[old]]]. If labels_new satisfies the
// representative invariant (every label is a vertex inside its component)
// so does the output, in original id space.
void map_labels_to_original(std::span<const vertex_id> labels_new,
                            std::span<const vertex_id> perm,
                            std::span<const vertex_id> inv,
                            std::span<vertex_id> out);

// Hub threshold used by kHub (exposed for tests/benches): a vertex is a
// hub when its degree is at least max(kHubMinDegree, kHubDegreeFactor *
// average directed degree).
inline constexpr size_t kHubMinDegree = 8;
inline constexpr size_t kHubDegreeFactor = 4;
size_t hub_degree_threshold(const graph& g);

}  // namespace pcc::graph
