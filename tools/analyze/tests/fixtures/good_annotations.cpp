// Negative fixtures for the annotation audit: an anchored annotation with
// real invariant text, and suppressions that suppress real findings.
#include "prelude.hpp"

void anchored(unsigned* D, const unsigned* start) {
  parallel_for(0, 64, [&](unsigned long i) {
    // lint: private-write(iteration i owns the row at start[i])
    D[start[i]] = 1;
  });
}

void used_suppression(unsigned* D, const unsigned* x) {
  parallel_for(0, 64, [&](unsigned long i) {
    // analyze: suppress(shared-write: duplicate writes store the same value)
    D[x[i]] = 1;
  });
}

void used_second_suppression(unsigned* D, const unsigned* x) {
  parallel_for(0, 64, [&](unsigned long i) {
    // analyze: suppress(shared-write: idempotent flag set, benign race)
    D[x[i]] = 1;
  });
}
