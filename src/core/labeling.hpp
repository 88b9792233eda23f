// Liu–Tarjan concurrent-labeling connectivity kernels.
//
// Liu & Tarjan ["Simple Concurrent Labeling Algorithms for Connected
// Components", arXiv:1812.06177] organize a family of round-synchronous
// connectivity algorithms as combinations of three independent choices:
//
//   hook     — how an edge (u, v) pulls labels together:
//                direct    p[u] <- min(p[u], p[v])            (both dirs)
//                parent    p[p[u]] <- min(p[p[u]], p[v])
//                extended  both of the above
//                roots     like direct, but only when p[u] == u
//   shortcut — how the label forest is flattened between hook rounds:
//                single    p[v] <- p[p[v]]         (one pointer jump)
//                full      p[v] <- root(v)         (jump to the root)
//   alter    — whether each round rewrites the edge list to connect the
//              endpoints' current parents and drops the self-loops that
//              appear once both endpoints agree (the edge list shrinks as
//              components coalesce, like contraction without building a
//              new graph).
//
// All hooks are monotone write_min updates preserving p[x] <= x, so every
// combination terminates; the kernel below additionally runs a
// certification epilogue (direct hook over the ORIGINAL edges + single
// shortcut, until quiescent) that makes every combination unconditionally
// correct and makes the final labels the minimum vertex id of each
// component — i.e. deterministic across schedules and worker counts. See
// ALGORITHMS.md ("The Liu–Tarjan lattice") for the argument.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/arena.hpp"
#include "parallel/defs.hpp"

namespace pcc::cc {

enum class lt_hook : uint8_t {
  kDirect,    // P <- min over both endpoints' parents
  kParent,    // update the parent's cell
  kExtended,  // parent + direct
  kRoots,     // direct, but only root vertices hook
};

enum class lt_shortcut : uint8_t {
  kSingle,  // one pointer jump per round
  kFull,    // chase to the root each round
};

struct lt_policy {
  lt_hook hook = lt_hook::kParent;
  lt_shortcut shortcut = lt_shortcut::kSingle;
  // Rewrite edges to (p[a], p[b]) after each round and drop self-loops.
  bool alter = false;
};

// A named point in the lattice, for registration and CLI listing.
struct lt_variant {
  const char* name;  // e.g. "lt-ps" (parent hook, single shortcut)
  lt_policy policy;
  const char* description;
};

// The named variants this library registers. Roots-only hooks are offered
// only with alter: without edge rewriting a roots-only hook can stall with
// non-root endpoints never constrained (the paper's "R" rows all alter).
std::span<const lt_variant> liu_tarjan_variants();

// NULL if `name` is not a registered Liu–Tarjan variant.
const lt_variant* find_liu_tarjan_variant(std::string_view name);

// Run the selected variant; labels[v] becomes the minimum vertex id in
// v's component. `labels` must have g.num_vertices() elements. All scratch
// (the alter edge buffers) comes from `ws`; the call is allocation-free
// once `ws` has warmed up. Returns the number of rounds executed
// (variant rounds + certification rounds).
size_t liu_tarjan_into(const graph::graph& g, const lt_policy& policy,
                       std::span<vertex_id> labels, parallel::workspace& ws);

// Convenience wrapper with a private workspace.
std::vector<vertex_id> liu_tarjan_components(const graph::graph& g,
                                             const lt_policy& policy);

}  // namespace pcc::cc
