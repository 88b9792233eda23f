// Positive fixtures for the hot-path hygiene checks: type-erased
// callables, allocation, hidden-global randomness and mutable static
// locals inside parallel bodies, and iteration-order-dependent hash
// traversal in a registry run impl.
#include "prelude.hpp"

void erased_callable(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    std::function<unsigned(unsigned)> f;
    out[i] = i;
  });
}

void alloc_in_body(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    std::vector<unsigned> tmp(4);
    out[i] = static_cast<unsigned>(tmp.size());
  });
}

void hidden_global_rng(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    out[i] = static_cast<unsigned>(std::rand());
  });
}

// The inner body is part of the outer one too; the static is reported once.
void mutable_static_local(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    parallel_for(0, 4, [&](unsigned long) {
      static unsigned calls = 0;
      (void)calls;
    });
    out[i] = 0;
  });
}

// Registry hot path: results must not depend on hash iteration order.
unsigned run_sum_labels(const std::unordered_map<unsigned, unsigned>& m) {
  unsigned acc = 0;
  for (const auto& kv : m) acc += kv.second;
  return acc;
}
