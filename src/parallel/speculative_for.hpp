// Deterministic reservations (PBBS-style speculative_for).
//
// Substrate for the parallel-SF-PBBS baseline: the PBBS spanning forest
// processes edges speculatively in rounds — each iterate *reserves* the
// shared state it needs with a priority writeMin, then iterates whose
// reservations survived *commit*; failed iterates retry in later rounds.
// The result is deterministic: equal to processing iterates in index order.
//
// Reference: Blelloch, Fineman, Gibbons, Shun, "Internally deterministic
// parallel algorithms can be fast", PPoPP'12 (the PBBS framework the paper
// benchmarks against).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::parallel {

// A reservation cell: holds the smallest iterate index that claimed it.
class reservation {
 public:
  static constexpr uint64_t kFree = ~uint64_t{0};

  reservation() : holder_(kFree) {}

  // Claim with priority = lower index wins.
  void reserve(uint64_t iterate) { write_min(&holder_, iterate); }

  // True iff `iterate` holds the reservation; resets the cell for the next
  // round when it does. Atomic accesses throughout: during a commit phase
  // other iterates may inspect the cell while its holder releases it.
  bool check_and_release(uint64_t iterate) {
    if (atomic_load(&holder_) == iterate) {
      atomic_store(&holder_, kFree);
      return true;
    }
    return false;
  }

  bool reserved_by(uint64_t iterate) const {
    return atomic_load(&holder_) == iterate;
  }
  bool free() const { return atomic_load(&holder_) == kFree; }
  void reset() { atomic_store(&holder_, kFree); }

 private:
  uint64_t holder_;
};

// Run iterates [0, num_iterates) with deterministic reservations.
//
// `Step` must provide:
//   bool reserve(uint64_t i)  — try to reserve state; false = iterate is
//                               already done and needs no commit.
//   bool commit(uint64_t i)   — apply if reservations held; false = retry.
//
// `granularity` controls how many iterates are attempted per round
// (PBBS default style: a multiple of the worker count, growing when rounds
// mostly succeed). Returns the number of rounds executed.
template <typename Step>
size_t speculative_for(Step& step, size_t num_iterates,
                       size_t granularity = 0) {
  if (granularity == 0) {
    // num_workers() reports the scoped_workers cap, so the batch size
    // tracks it consistently with emit.hpp's per-worker sizing.
    granularity = std::max<size_t>(64, 16 * static_cast<size_t>(num_workers()));
  }

  // Iterates still live, in priority (index) order.
  std::vector<uint64_t> live;
  size_t next_fresh = 0;  // first never-attempted iterate
  size_t rounds = 0;

  while (next_fresh < num_iterates || !live.empty()) {
    ++rounds;
    // Top up the working set to `granularity` iterates: retries first
    // (they have the highest priority), then fresh ones.
    const size_t fresh =
        std::min(granularity > live.size() ? granularity - live.size() : 0,
                 num_iterates - next_fresh);
    const size_t batch = live.size() + fresh;
    std::vector<uint64_t> attempt(batch);
    parallel_for(0, live.size(), [&](size_t i) { attempt[i] = live[i]; });
    parallel_for(0, fresh, [&](size_t i) {
      // lint: private-write(live.size() + i is injective in i)
      attempt[live.size() + i] = next_fresh + i;
    });
    next_fresh += fresh;

    // Reserve phase.
    std::vector<uint8_t> needs_commit(batch);
    parallel_for(0, batch, [&](size_t i) {
      needs_commit[i] = step.reserve(attempt[i]) ? 1 : 0;
    });
    // Commit phase (phase-separated from reserves).
    std::vector<uint8_t> failed(batch);
    parallel_for(0, batch, [&](size_t i) {
      failed[i] = (needs_commit[i] != 0 && !step.commit(attempt[i])) ? 1 : 0;
    });
    live = pack(attempt, [&](size_t i) { return failed[i] != 0; });

    // Adaptive granularity: grow when few retries, as PBBS does.
    if (live.size() < granularity / 4) granularity *= 2;
  }
  return rounds;
}

}  // namespace pcc::parallel
