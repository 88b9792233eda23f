// Parallel sequence primitives: tabulate, map, reduce, scan, pack, filter.
//
// These are the "simple parallel routines" the paper's implementation is
// built from: prefix sums compute offsets into shared arrays; pack removes
// deleted (intra-component) edges; filter/pack_index gather the vertices of
// a frontier. All are work-efficient: O(n) work, O(log n) depth (block
// two-pass formulations).
#pragma once

#include <cassert>
#include <cstddef>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "parallel/arena.hpp"
#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::parallel {

namespace detail {

// Number of blocks used by the two-pass (block) scan/pack formulations.
inline size_t num_blocks(size_t n, size_t grain) {
  return n == 0 ? 0 : 1 + (n - 1) / grain;
}

}  // namespace detail

// Build a vector of length n with v[i] = f(i), in parallel.
template <typename T, typename F>
std::vector<T> tabulate(size_t n, F&& f, size_t grain = kDefaultGrain) {
  std::vector<T> out(n);
  parallel_for(0, n, [&](size_t i) { out[i] = f(i); }, grain);
  return out;
}

// out[i] = f(in[i]).
template <typename T, typename F>
auto map(const std::vector<T>& in, F&& f, size_t grain = kDefaultGrain) {
  using R = decltype(f(in[0]));
  std::vector<R> out(in.size());
  parallel_for(0, in.size(), [&](size_t i) { out[i] = f(in[i]); }, grain);
  return out;
}

// Parallel reduction of f(0) + f(1) + ... + f(n-1) under an associative,
// commutative monoid (sum by default). Two-pass: per-block sequential
// reduce, then reduce over block results.
template <typename T, typename F, typename Combine>
T reduce(size_t n, F&& f, T identity, Combine&& combine,
         size_t grain = kDefaultGrain) {
  if (n == 0) return identity;
  const size_t nb = detail::num_blocks(n, grain);
  if (nb == 1) {
    T acc = identity;
    for (size_t i = 0; i < n; ++i) acc = combine(acc, f(i));
    return acc;
  }
  // One byte per bool block: std::vector<bool> packs bits, so concurrent
  // per-block writes would race on shared words.
  using slot = std::conditional_t<std::is_same_v<T, bool>, uint8_t, T>;
  std::vector<slot> block(nb, identity);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        T acc = identity;
        for (size_t i = lo; i < hi; ++i) acc = combine(acc, f(i));
        block[b] = acc;
      },
      1);
  T acc = identity;
  for (size_t b = 0; b < nb; ++b) {
    acc = combine(acc, static_cast<T>(block[b]));
  }
  return acc;
}

// Workspace-backed reduction: identical to reduce() but the block-sum
// temporary comes from `ws` (rewound before returning) — the
// allocation-free twin for the engine's hot path.
template <typename T, typename F, typename Combine>
T reduce_ws(size_t n, F&& f, T identity, Combine&& combine, workspace& ws,
            size_t grain = kDefaultGrain) {
  if (n == 0) return identity;
  const size_t nb = detail::num_blocks(n, grain);
  if (nb == 1) {
    T acc = identity;
    for (size_t i = 0; i < n; ++i) acc = combine(acc, f(i));
    return acc;
  }
  workspace::scope s(ws);
  std::span<T> block = ws.take<T>(nb);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        T acc = identity;
        for (size_t i = lo; i < hi; ++i) acc = combine(acc, f(i));
        block[b] = acc;
      },
      1);
  T acc = identity;
  for (size_t b = 0; b < nb; ++b) acc = combine(acc, block[b]);
  return acc;
}

// Sum of f(i) over [0, n) with workspace-backed scratch.
template <typename T, typename F>
T reduce_sum_ws(size_t n, F&& f, workspace& ws, size_t grain = kDefaultGrain) {
  return reduce_ws(
      n, std::forward<F>(f), T{0}, [](T a, T b) { return a + b; }, ws, grain);
}

// Sum of f(i) over [0, n).
template <typename T, typename F>
T reduce_sum(size_t n, F&& f, size_t grain = kDefaultGrain) {
  return reduce(
      n, std::forward<F>(f), T{0}, [](T a, T b) { return a + b; }, grain);
}

// Maximum of f(i) over [0, n); returns `lowest` for an empty range.
template <typename T, typename F>
T reduce_max(size_t n, F&& f, T lowest, size_t grain = kDefaultGrain) {
  return reduce(
      n, std::forward<F>(f), lowest, [](T a, T b) { return a < b ? b : a; },
      grain);
}

// Exclusive scan (prefix sums): out[i] = sum of f(0..i-1); returns total.
// Classic two-pass block scan: block sums, sequential scan of block sums,
// then per-block local scans offset by the block prefix.
template <typename T, typename F>
T scan_exclusive_into(size_t n, F&& f, std::vector<T>& out,
                      size_t grain = kDefaultGrain) {
  out.resize(n);
  if (n == 0) return T{0};
  const size_t nb = detail::num_blocks(n, grain);
  if (nb == 1) {
    T acc{0};
    for (size_t i = 0; i < n; ++i) {
      out[i] = acc;
      acc += f(i);
    }
    return acc;
  }
  std::vector<T> block(nb);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        T acc{0};
        for (size_t i = lo; i < hi; ++i) acc += f(i);
        block[b] = acc;
      },
      1);
  T total{0};
  for (size_t b = 0; b < nb; ++b) {
    const T s = block[b];
    block[b] = total;
    total += s;
  }
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        T acc = block[b];
        for (size_t i = lo; i < hi; ++i) {
          out[i] = acc;  // lint: private-write(block b owns [lo, hi))
          acc += f(i);
        }
      },
      1);
  return total;
}

// Workspace-backed exclusive scan: out (size n) is caller-provided and the
// block-sum temporary comes from `ws` (rewound before returning). This is
// the allocation-free twin of scan_exclusive_into for the engine's hot path.
template <typename T, typename F>
T scan_exclusive_span(size_t n, F&& f, std::span<T> out, workspace& ws,
                      size_t grain = kDefaultGrain) {
  assert(out.size() >= n);
  if (n == 0) return T{0};
  const size_t nb = detail::num_blocks(n, grain);
  if (nb == 1) {
    T acc{0};
    for (size_t i = 0; i < n; ++i) {
      out[i] = acc;
      acc += f(i);
    }
    return acc;
  }
  workspace::scope s(ws);
  std::span<T> block = ws.take<T>(nb);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        T acc{0};
        for (size_t i = lo; i < hi; ++i) acc += f(i);
        block[b] = acc;
      },
      1);
  T total{0};
  for (size_t b = 0; b < nb; ++b) {
    const T s2 = block[b];
    block[b] = total;
    total += s2;
  }
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        T acc = block[b];
        for (size_t i = lo; i < hi; ++i) {
          out[i] = acc;  // lint: private-write(block b owns [lo, hi))
          acc += f(i);
        }
      },
      1);
  return total;
}

// Workspace-backed pack_index: write the indices i in [0, n) with keep(i)
// into `out` (capacity >= count), returning the count. Scan scratch comes
// from `ws`.
template <typename Index = size_t, typename Keep>
size_t pack_index_span(size_t n, Keep&& keep, std::span<Index> out,
                       workspace& ws, size_t grain = kDefaultGrain) {
  workspace::scope s(ws);
  std::span<size_t> offsets = ws.take<size_t>(n);
  const size_t total = scan_exclusive_span<size_t>(
      n, [&](size_t i) { return keep(i) ? size_t{1} : size_t{0}; }, offsets,
      ws, grain);
  assert(out.size() >= total);
  parallel_for(
      0, n,
      [&](size_t i) {
        // lint: private-write(offsets is an exclusive scan, injective)
        if (keep(i)) out[offsets[i]] = static_cast<Index>(i);
      },
      grain);
  return total;
}

// Exclusive scan of a vector in place; returns the total.
template <typename T>
T scan_exclusive(std::vector<T>& v, size_t grain = kDefaultGrain) {
  std::vector<T> out;
  const T total =
      scan_exclusive_into(v.size(), [&](size_t i) { return v[i]; }, out, grain);
  v.swap(out);
  return total;
}

// Pack: keep in[i] where keep(i), preserving order. Two-pass via scan.
template <typename T, typename Keep>
std::vector<T> pack(const std::vector<T>& in, Keep&& keep,
                    size_t grain = kDefaultGrain) {
  const size_t n = in.size();
  std::vector<size_t> offsets;
  const size_t total = scan_exclusive_into(
      n, [&](size_t i) { return keep(i) ? size_t{1} : size_t{0}; }, offsets,
      grain);
  std::vector<T> out(total);
  parallel_for(
      0, n,
      [&](size_t i) {
        // lint: private-write(offsets is an exclusive scan, injective)
        if (keep(i)) out[offsets[i]] = in[i];
      },
      grain);
  return out;
}

// Pack the *indices* i in [0, n) where keep(i), in increasing order.
// Used to build sparse frontiers from dense flag arrays.
template <typename Index = size_t, typename Keep>
std::vector<Index> pack_index(size_t n, Keep&& keep,
                              size_t grain = kDefaultGrain) {
  std::vector<size_t> offsets;
  const size_t total = scan_exclusive_into(
      n, [&](size_t i) { return keep(i) ? size_t{1} : size_t{0}; }, offsets,
      grain);
  std::vector<Index> out(total);
  parallel_for(
      0, n,
      [&](size_t i) {
        // lint: private-write(offsets is an exclusive scan, injective)
        if (keep(i)) out[offsets[i]] = static_cast<Index>(i);
      },
      grain);
  return out;
}

// filter: keep elements satisfying a predicate on the value.
template <typename T, typename Pred>
std::vector<T> filter(const std::vector<T>& in, Pred&& pred,
                      size_t grain = kDefaultGrain) {
  return pack(in, [&](size_t i) { return pred(in[i]); }, grain);
}

// Count elements of [0, n) satisfying pred(i).
template <typename Pred>
size_t count_if_index(size_t n, Pred&& pred, size_t grain = kDefaultGrain) {
  return reduce_sum<size_t>(
      n, [&](size_t i) { return pred(i) ? size_t{1} : size_t{0}; }, grain);
}

}  // namespace pcc::parallel
