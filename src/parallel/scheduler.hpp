// Thin scheduler layer over OpenMP.
//
// The paper's code uses Cilk Plus (cilk_for / cilk_spawn). The algorithms
// never touch the runtime directly: they call pcc::parallel::parallel_for
// and pcc::parallel::par_do, so swapping in another fork-join scheduler
// (Cilk, TBB, ...) only means reimplementing the functions below.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <utility>

#include "parallel/defs.hpp"

// ThreadSanitizer cannot see libgomp's fork/join barriers (libgomp ships
// uninstrumented), so under TSan a plain `#pragma omp parallel for` yields
// false reports everywhere: the compiler-generated capture struct written
// at the pragma, the loop body's writes, and the post-join reads all look
// unordered. The suppression file must stay empty, so instead TSan builds
// dispatch OpenMP regions through detail::tsan_omp_run below, which shares
// no function locals with the region — the job is published via a
// namespace-scope release/acquire atomic and blocks are handed out with an
// atomic counter, making every cross-thread edge TSan-visible. Scheduling
// semantics match the normal path (dynamic self-scheduling over blocks);
// only TSan builds pay the extra atomics.
#if defined(__SANITIZE_THREAD__)
#define PCC_TSAN_SCHEDULER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCC_TSAN_SCHEDULER 1
#endif
#endif
#ifndef PCC_TSAN_SCHEDULER
#define PCC_TSAN_SCHEDULER 0
#endif

namespace pcc::parallel {

// Provenance tag recorded in benchmark rows. OpenMP is the only scheduler;
// the tag stays so rows keep joining against earlier baselines.
enum class backend { kOpenMP };

inline backend current_backend() { return backend::kOpenMP; }

namespace detail {
#if PCC_TSAN_SCHEDULER
struct tsan_omp_job {
  void (*invoke)(void*, size_t) = nullptr;
  void* ctx = nullptr;
  size_t num_blocks = 0;
  std::atomic<size_t> next{0};
};

// Job slot for the current top-level OpenMP region. Namespace scope on
// purpose: the region body below must reference no function locals, or
// the compiler would pass them through a shared capture struct whose
// accesses TSan cannot order across the uninstrumented team barriers.
// Only one top-level region runs at a time (nested calls serialize before
// reaching this path), so a single slot suffices.
inline std::atomic<tsan_omp_job*> tsan_omp_current{nullptr};

template <typename Body>
void tsan_omp_run(size_t num_blocks, Body& body) {
  tsan_omp_job j;
  j.invoke = [](void* ctx, size_t b) { (*static_cast<Body*>(ctx))(b); };
  j.ctx = &body;
  j.num_blocks = num_blocks;
  // Fork edge: workers acquire-load the slot inside the region, ordering
  // the job fields and the body's captures ahead of every block.
  tsan_omp_current.store(&j, std::memory_order_release);
#pragma omp parallel
  {
    tsan_omp_job* jp = tsan_omp_current.load(std::memory_order_acquire);
    // Snapshot the job fields up front: the overrunning fetch_add below is
    // each worker's release into the join edge, so no plain read of the
    // job (which lives on the submitter's stack) may follow it.
    void (*const invoke)(void*, size_t) = jp->invoke;
    void* const ctx = jp->ctx;
    const size_t blocks = jp->num_blocks;
    while (true) {
      const size_t b = jp->next.fetch_add(1, std::memory_order_acq_rel);
      if (b >= blocks) break;
      invoke(ctx, b);
    }
  }
  // Join edge: every worker's final (overrunning) fetch_add is an acq-rel
  // RMW on `next`, so this acquire load orders all block work ahead of
  // everything after the region.
  (void)j.next.load(std::memory_order_acquire);
  tsan_omp_current.store(nullptr, std::memory_order_relaxed);
}
#endif  // PCC_TSAN_SCHEDULER
}  // namespace detail

// Number of worker threads parallel regions will use.
inline int num_workers() { return omp_get_max_threads(); }

// Identifier of the calling worker in [0, num_workers()): the team-local
// thread id.
inline int worker_id() { return omp_get_thread_num(); }

// Set the number of worker threads (global). num_workers(), worker_id(),
// emit.hpp's per-worker staging sizes and speculative_for's granularity all
// read this value, so it must not change while a parallel region is open
// (see emit.hpp for why the invariant matters).
inline void set_num_workers(int n) {
  assert(!omp_in_parallel() && "set_num_workers inside a parallel region");
  omp_set_num_threads(std::max(1, n));
}

// RAII guard that sets the worker count and restores the previous value.
class scoped_workers {
 public:
  explicit scoped_workers(int n) : saved_(num_workers()) {
    set_num_workers(n);
  }
  ~scoped_workers() { set_num_workers(saved_); }
  scoped_workers(const scoped_workers&) = delete;
  scoped_workers& operator=(const scoped_workers&) = delete;

 private:
  int saved_;
};

// Parallel loop over [start, end). `f` is invoked once per index. Runs
// sequentially when the range is below `grain` or when already inside a
// parallel region (nested parallel-for serializes — the right policy for
// the divide-and-conquer sorts).
template <typename F>
void parallel_for(size_t start, size_t end, F&& f, size_t grain = kDefaultGrain) {
  if (end <= start) return;
  const size_t n = end - start;
  const size_t num_blocks = (n + grain - 1) / grain;

  if (n <= grain || omp_get_max_threads() == 1 || omp_in_parallel()) {
    for (size_t i = start; i < end; ++i) f(i);
    return;
  }
#if PCC_TSAN_SCHEDULER
  auto block = [&](size_t b) {
    const size_t lo = start + b * grain;
    const size_t hi = std::min(end, lo + grain);
    for (size_t i = lo; i < hi; ++i) f(i);
  };
  detail::tsan_omp_run(num_blocks, block);
#else
#pragma omp parallel for schedule(dynamic, 1)
  for (long long b = 0; b < static_cast<long long>(num_blocks); ++b) {
    const size_t lo = start + static_cast<size_t>(b) * grain;
    const size_t hi = std::min(end, lo + grain);
    for (size_t i = lo; i < hi; ++i) f(i);
  }
#endif
}

// Fork-join pair: run `left` and `right` potentially in parallel, join both.
// Equivalent of cilk_spawn/cilk_sync for two-way divide and conquer.
template <typename L, typename R>
void par_do(L&& left, R&& right) {
  if (omp_get_max_threads() == 1) {
    left();
    right();
    return;
  }
#if PCC_TSAN_SCHEDULER
  if (omp_in_parallel()) {
    // omp task/taskwait synchronizes through uninstrumented libgomp
    // barriers TSan cannot order, so nested forks run serially here.
    left();
    right();
    return;
  }
  auto both = [&](size_t b) {
    if (b == 0) {
      left();
    } else {
      right();
    }
  };
  detail::tsan_omp_run(2, both);
#else
  if (omp_in_parallel()) {
#pragma omp task untied shared(left)
    left();
    right();
#pragma omp taskwait
  } else {
#pragma omp parallel
#pragma omp single nowait
    {
#pragma omp task untied shared(left)
      left();
      right();
#pragma omp taskwait
    }
  }
#endif
}

}  // namespace pcc::parallel
