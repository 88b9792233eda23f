// Atomic primitives used by the connectivity algorithms: compare-and-swap,
// writeMin / writeMax (priority update), and fetch-and-add.
//
// These follow the semantics in Section 2 of the paper: writeMin(loc, val)
// atomically replaces *loc with min(*loc, val) under a comparator and
// reports whether it changed the location. The loop-over-CAS implementation
// is the one described in [Shun et al., "Reducing contention through
// priority updates", SPAA'13].
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace pcc::parallel {

// Atomically: if (*loc == expected) { *loc = desired; return true; }
// Plain-memory CAS — the algorithms operate on big flat arrays and taking
// std::atomic_ref keeps the arrays themselves ordinary (cheap to allocate,
// scan, sort).
template <typename T>
inline bool cas(T* loc, T expected, T desired) {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  return std::atomic_ref<T>(*loc).compare_exchange_strong(
      expected, desired, std::memory_order_acq_rel, std::memory_order_acquire);
}

// Atomic load / store with acquire/release ordering. atomic_ref<const T>
// only arrives in C++26, so the load const_casts internally (it never
// writes through the pointer).
template <typename T>
inline T atomic_load(const T* loc) {
  return std::atomic_ref<T>(*const_cast<T*>(loc))
      .load(std::memory_order_acquire);
}

template <typename T>
inline void atomic_store(T* loc, T value) {
  std::atomic_ref<T>(*loc).store(value, std::memory_order_release);
}

// Relaxed atomic store/load for intentionally racy flag writes where every
// racing writer stores the same value (e.g. contract()'s has_edge marks).
// Semantically equivalent to a plain store, but tells the compiler and the
// thread sanitizer that the race is by design.
//
// write_once never stores a value the location already holds: it loads
// first and stores only on a difference. When many workers mark the same
// few flags (contraction's has_edge at a level with a handful of clusters),
// an unconditional store makes every worker take the line exclusive and it
// ping-pongs between cores; the load keeps it shared. Skipping an equal
// store is one of the interleavings the same-value contract already allows.
template <typename T>
inline void write_once(T* loc, T value) {
  std::atomic_ref<T> ref(*loc);
  if (ref.load(std::memory_order_relaxed) != value) {
    ref.store(value, std::memory_order_relaxed);
  }
}

template <typename T>
inline T read_once(const T* loc) {
  return std::atomic_ref<T>(*const_cast<T*>(loc))
      .load(std::memory_order_relaxed);
}

// writeMin: atomically update *loc to min(*loc, val) under `less`.
// Returns true iff this call changed the stored value.
template <typename T, typename Less = std::less<T>>
inline bool write_min(T* loc, T val, Less less = Less{}) {
  T observed = atomic_load(loc);
  while (less(val, observed)) {
    if (cas(loc, observed, val)) return true;
    observed = atomic_load(loc);
  }
  return false;
}

// writeMax: dual of write_min.
template <typename T, typename Less = std::less<T>>
inline bool write_max(T* loc, T val, Less less = Less{}) {
  T observed = atomic_load(loc);
  while (less(observed, val)) {
    if (cas(loc, observed, val)) return true;
    observed = atomic_load(loc);
  }
  return false;
}

// Atomic fetch-and-add; returns the previous value.
template <typename T>
inline T fetch_add(T* loc, T delta) {
  return std::atomic_ref<T>(*loc).fetch_add(delta, std::memory_order_acq_rel);
}

// Atomic fetch-or; returns the previous value. Used to set bits in shared
// bitmap words (e.g. a bit-packed frontier) where several writers may hit
// the same word with different masks.
template <typename T>
inline T fetch_or(T* loc, T bits) {
  return std::atomic_ref<T>(*loc).fetch_or(bits, std::memory_order_acq_rel);
}

// --- Packed (key, value) pairs for the pair-writeMin of Decomp-Min. ---
//
// Decomp-Min (Algorithm 2) keeps per-vertex pairs C[v] = (c1, c2) where c1
// is the fractional-shift used to resolve which BFS wins an unvisited
// neighbour and c2 is the component id. Keeping the pair in ONE 64-bit word
// (c1 in the high bits) makes the paper's pair writeMin a single-word
// atomic min and — as the paper notes for its pair array — avoids a second
// cache miss per visit.
using packed_pair = uint64_t;

inline constexpr packed_pair pack_pair(uint32_t hi, uint32_t lo) {
  return (static_cast<packed_pair>(hi) << 32) | lo;
}
inline constexpr uint32_t pair_first(packed_pair p) {
  return static_cast<uint32_t>(p >> 32);
}
inline constexpr uint32_t pair_second(packed_pair p) {
  return static_cast<uint32_t>(p);
}

}  // namespace pcc::parallel
