// uninitialized_buffer / workspace placement: chunks of at least one huge
// page sit on a huge-page boundary, smaller ones on a cache line, and a
// moved buffer frees with the alignment it was allocated with (ASan flags a
// mismatched aligned delete). Whether the kernel actually backs a chunk
// with huge pages depends on its THP mode and is not asserted.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "parallel/arena.hpp"

namespace pcc::parallel {
namespace {

bool aligned_to(const void* p, size_t alignment) {
  return reinterpret_cast<uintptr_t>(p) % alignment == 0;
}

TEST(Arena, HugeChunkStartsOnHugePageBoundary) {
  uninitialized_buffer<std::byte> exact(kHugePageBytes);
  EXPECT_TRUE(aligned_to(exact.data(), kHugePageBytes));

  uninitialized_buffer<uint64_t> wide(3 * kHugePageBytes / sizeof(uint64_t));
  EXPECT_TRUE(aligned_to(wide.data(), kHugePageBytes));

  uninitialized_buffer<uint32_t> untouched(kHugePageBytes, false);
  EXPECT_TRUE(aligned_to(untouched.data(), kHugePageBytes));

  workspace ws(5 * kHugePageBytes);
  EXPECT_TRUE(aligned_to(ws.take<uint32_t>(1).data(), kHugePageBytes));
}

TEST(Arena, SmallChunkKeepsCacheLineAlignment) {
  for (size_t bytes : {size_t{1}, size_t{4096}, kHugePageBytes - 1}) {
    uninitialized_buffer<std::byte> b(bytes);
    EXPECT_TRUE(aligned_to(b.data(), kCacheLineBytes)) << bytes;
    EXPECT_EQ(buffer_alignment(bytes), kCacheLineBytes) << bytes;
  }
  EXPECT_EQ(buffer_alignment(kHugePageBytes), kHugePageBytes);
}

TEST(Arena, MovedBufferFreesWithItsAlignment) {
  uninitialized_buffer<std::byte> huge(2 * kHugePageBytes);
  std::byte* p = huge.data();
  uninitialized_buffer<std::byte> moved(std::move(huge));
  EXPECT_EQ(moved.data(), p);
  EXPECT_EQ(moved.size(), 2 * kHugePageBytes);
  EXPECT_TRUE(huge.empty());

  // Move-assign over a small buffer (freed with cache-line alignment), then
  // a small one over the huge one (freed with huge-page alignment).
  uninitialized_buffer<std::byte> small(256);
  small = std::move(moved);
  EXPECT_EQ(small.data(), p);
  uninitialized_buffer<std::byte> other_small(128);
  small = std::move(other_small);
  EXPECT_EQ(small.size(), 128u);
  EXPECT_TRUE(aligned_to(small.data(), kCacheLineBytes));
}

TEST(Arena, MovedWorkspaceKeepsItsChunks) {
  workspace ws(3 * kHugePageBytes);
  std::span<uint8_t> s = ws.take<uint8_t>(kHugePageBytes);
  s[0] = 7;
  workspace moved(std::move(ws));
  EXPECT_EQ(moved.capacity(), 3 * kHugePageBytes);
  EXPECT_EQ(s[0], 7u);  // moving the arena does not move its chunks
  EXPECT_TRUE(aligned_to(s.data(), kHugePageBytes));

  workspace target(1024);
  target = std::move(moved);
  EXPECT_EQ(target.capacity(), 3 * kHugePageBytes);
  target.reset();
  EXPECT_EQ(target.take<uint8_t>(1).data(), s.data());
}

}  // namespace
}  // namespace pcc::parallel
