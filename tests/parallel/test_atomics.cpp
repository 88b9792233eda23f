// CAS / writeMin / writeMax / fetch_add / write_once semantics, sequential
// and under real contention.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::parallel {
namespace {

TEST(Cas, SucceedsOnMatchFailsOnMismatch) {
  int x = 5;
  EXPECT_TRUE(cas(&x, 5, 7));
  EXPECT_EQ(x, 7);
  EXPECT_FALSE(cas(&x, 5, 9));
  EXPECT_EQ(x, 7);
}

TEST(Cas, WorksOnUint64) {
  uint64_t x = ~uint64_t{0};
  EXPECT_TRUE(cas(&x, ~uint64_t{0}, uint64_t{1}));
  EXPECT_EQ(x, 1u);
}

TEST(WriteMin, UpdatesOnlyWhenSmaller) {
  int x = 10;
  EXPECT_TRUE(write_min(&x, 3));
  EXPECT_EQ(x, 3);
  EXPECT_FALSE(write_min(&x, 5));
  EXPECT_EQ(x, 3);
  EXPECT_FALSE(write_min(&x, 3));  // equal: no change
  EXPECT_EQ(x, 3);
}

TEST(WriteMin, CustomComparatorGivesWriteMaxBehaviour) {
  int x = 2;
  EXPECT_TRUE(write_min(&x, 9, std::greater<int>()));
  EXPECT_EQ(x, 9);
}

TEST(WriteMax, UpdatesOnlyWhenLarger) {
  int x = 10;
  EXPECT_TRUE(write_max(&x, 30));
  EXPECT_EQ(x, 30);
  EXPECT_FALSE(write_max(&x, 20));
  EXPECT_EQ(x, 30);
}

TEST(FetchAdd, ReturnsPrevious) {
  size_t x = 100;
  EXPECT_EQ(fetch_add<size_t>(&x, 5), 100u);
  EXPECT_EQ(x, 105u);
}

TEST(WriteMin, ConcurrentWritersProduceGlobalMinimum) {
  // Many parallel writers race on a few cells; each cell must end with the
  // exact minimum of the values written to it.
  constexpr size_t kCells = 16;
  constexpr size_t kWriters = 100000;
  std::vector<uint64_t> cells(kCells, ~uint64_t{0});
  std::vector<uint64_t> expected(kCells, ~uint64_t{0});
  std::vector<uint64_t> values(kWriters);
  for (size_t i = 0; i < kWriters; ++i) {
    values[i] = hash64(i);
    expected[i % kCells] = std::min(expected[i % kCells], values[i]);
  }
  parallel_for(0, kWriters, [&](size_t i) {
    write_min(&cells[i % kCells], values[i]);
  }, 64);
  EXPECT_EQ(cells, expected);
}

TEST(FetchAdd, ConcurrentCountsExactly) {
  size_t counter = 0;
  parallel_for(0, 50000, [&](size_t) { fetch_add<size_t>(&counter, 1); }, 64);
  EXPECT_EQ(counter, 50000u);
}

TEST(Cas, ConcurrentClaimGrantsExactlyOneWinner) {
  // All threads race to claim each slot; exactly one claim per slot wins.
  constexpr size_t kSlots = 1000;
  std::vector<uint32_t> slots(kSlots, ~0u);
  size_t wins = 0;
  parallel_for(0, kSlots * 8, [&](size_t i) {
    if (cas(&slots[i % kSlots], ~0u, static_cast<uint32_t>(i))) {
      fetch_add<size_t>(&wins, 1);
    }
  }, 16);
  EXPECT_EQ(wins, kSlots);
  for (uint32_t s : slots) EXPECT_NE(s, ~0u);
}

TEST(WriteOnce, SkipsTheStoreWhenTheValueIsAlreadyThere) {
  // A flag byte that already holds 1 sits on a read-only page: any store
  // to it faults, so this passes only if write_once of the held value
  // leaves the location alone.
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  void* mem = ::mmap(nullptr, page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  auto* flag = static_cast<uint8_t*>(mem);
  *flag = 1;
  ASSERT_EQ(::mprotect(mem, page, PROT_READ), 0);
  write_once(flag, uint8_t{1});
  EXPECT_EQ(read_once(flag), 1u);

  // A different value on a writable page is stored.
  ASSERT_EQ(::mprotect(mem, page, PROT_READ | PROT_WRITE), 0);
  write_once(flag, uint8_t{2});
  EXPECT_EQ(read_once(flag), 2u);
  ASSERT_EQ(::munmap(mem, page), 0);
}

TEST(WriteOnce, ConcurrentSameValueMarksLandOnEveryFlag) {
  // The contraction prelude's pattern: many writers mark a few flags.
  constexpr size_t kFlags = 5;
  std::vector<uint8_t> flags(kFlags, 0);
  parallel_for(0, 100000, [&](size_t i) {
    write_once(&flags[i % kFlags], uint8_t{1});
  }, 64);
  for (uint8_t f : flags) EXPECT_EQ(f, 1u);
}

TEST(PackedPair, RoundTripAndOrdering) {
  const packed_pair p = pack_pair(7, 42);
  EXPECT_EQ(pair_first(p), 7u);
  EXPECT_EQ(pair_second(p), 42u);
  // Lexicographic by (first, second): exactly the writeMin order the
  // Decomp-Min pair update needs.
  EXPECT_LT(pack_pair(1, 100), pack_pair(2, 0));
  EXPECT_LT(pack_pair(1, 5), pack_pair(1, 6));
}

TEST(PackedPair, WriteMinResolvesByFractionThenLabel) {
  packed_pair c = pack_pair(~0u, ~0u);
  write_min(&c, pack_pair(10, 3));
  write_min(&c, pack_pair(4, 9));
  write_min(&c, pack_pair(4, 2));  // tie on fraction: smaller label wins
  write_min(&c, pack_pair(7, 1));
  EXPECT_EQ(pair_first(c), 4u);
  EXPECT_EQ(pair_second(c), 2u);
}

}  // namespace
}  // namespace pcc::parallel
