// Negative fixtures for the hygiene checks: fixed-capacity hash_map
// insert does not allocate, spans into preallocated storage are fine,
// constant and per-thread static locals share no mutable state, and
// allocation or statics outside any parallel region are nobody's business.
#include "prelude.hpp"

void fixed_capacity_insert(pcc::parallel::hash_map& hm,
                           const unsigned* keys) {
  parallel_for(0, 64, [&](unsigned long i) {
    hm.insert(keys[i], static_cast<unsigned>(i));
  });
}

void alloc_outside_region(unsigned* out) {
  std::vector<unsigned> staging(64);
  parallel_for(0, 64, [&](unsigned long i) {
    out[i] = static_cast<unsigned>(i + staging.size());
  });
}

void constant_and_per_thread_statics(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    static constexpr unsigned kScale = 3;
    static thread_local unsigned scratch = 0;
    scratch = static_cast<unsigned>(i);
    out[i] = kScale * scratch;
  });
}

// The static check covers parallel bodies only, not registry run impls.
unsigned run_count_calls() {
  static unsigned calls = 0;
  return ++calls;
}

// A run impl that walks a vector: deterministic order, no findings.
unsigned run_sum_vector(const std::vector<unsigned>& v) {
  unsigned acc = 0;
  for (unsigned long i = 0; i < v.size(); ++i) acc += i;
  return acc;
}
