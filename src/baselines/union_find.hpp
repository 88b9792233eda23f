// Disjoint-set (union-find) structures: a sequential one for serial-SF and
// a concurrent one shared by the parallel spanning-forest baselines.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::baselines {

// Sequential union-find with union by rank and path halving: near-linear
// total work, the standard sequential spanning-forest substrate.
class union_find {
 public:
  explicit union_find(size_t n) : parent_(n), rank_(n, 0) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<vertex_id>(i);
  }

  vertex_id find(vertex_id x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  // Returns true iff x and y were in different sets (an edge joining them
  // belongs to the spanning forest).
  bool unite(vertex_id x, vertex_id y) {
    vertex_id rx = find(x);
    vertex_id ry = find(y);
    if (rx == ry) return false;
    if (rank_[rx] < rank_[ry]) std::swap(rx, ry);
    parent_[ry] = rx;
    if (rank_[rx] == rank_[ry]) ++rank_[rx];
    return true;
  }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<vertex_id> parent_;
  std::vector<uint8_t> rank_;
};

// Concurrent union-find over a shared parent array. find() is wait-free
// reading; unite() links the larger root under the smaller with a CAS and
// retries on contention (lock-free "union by index" — a standard concurrent
// scheme with the same guarantees the lock-based PRM code relies on: roots
// only ever point to smaller ids, so no cycles form).
class concurrent_union_find {
 public:
  explicit concurrent_union_find(size_t n) : parent_(n) {
    parallel::parallel_for(0, n, [&](size_t i) {
      parent_[i] = static_cast<vertex_id>(i);
    });
  }

  vertex_id find(vertex_id x) const {
    while (true) {
      const vertex_id p = parallel::atomic_load(&parent_[x]);
      if (p == x) return x;
      x = p;
    }
  }

  // Find with path compression. Safe against concurrent finds (compression
  // only ever re-points a node at an ancestor), but NOT against concurrent
  // links: if `root` is hung under another root mid-walk, the walk can pass
  // it and point that other root back at `root`, closing a cycle.
  vertex_id find_compress(vertex_id x) {
    const vertex_id root = find(x);
    while (x != root) {
      const vertex_id p = parallel::atomic_load(&parent_[x]);
      parallel::atomic_store(&parent_[x], root);
      x = p;
    }
    return root;
  }

  // Concurrent union. Returns true iff this call performed the link that
  // merged two distinct sets (its edge is a spanning-forest edge). Uses the
  // non-compressing find: other unite() calls link concurrently.
  bool unite(vertex_id x, vertex_id y) {
    while (true) {
      vertex_id rx = find(x);
      vertex_id ry = find(y);
      if (rx == ry) return false;
      if (rx > ry) std::swap(rx, ry);  // link larger root under smaller
      // ry is a root; try to hang it below rx.
      if (parallel::cas(&parent_[ry], ry, rx)) return true;
      // Lost a race: ry stopped being a root; retry from the new roots.
    }
  }

  // After all unions: flatten so parent_[v] is the set representative.
  std::vector<vertex_id> flatten() {
    const size_t n = parent_.size();
    std::vector<vertex_id> labels(n);
    parallel::parallel_for(0, n, [&](size_t v) {
      labels[v] = find_compress(static_cast<vertex_id>(v));
    });
    return labels;
  }

  vertex_id* data() { return parent_.data(); }
  size_t size() const { return parent_.size(); }

 private:
  std::vector<vertex_id> parent_;
};

}  // namespace pcc::baselines
