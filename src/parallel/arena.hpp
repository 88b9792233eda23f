// Uninitialized-memory buffer pool backing the connectivity engine.
//
// The paper's engineering section (Section 5) observes that allocation and
// first-touch page faults are a first-order cost in practical parallel
// connectivity: every std::vector the recursion builds is zero-initialized
// sequentially and faulted in on one NUMA node. This header provides the
// two pieces the engine uses to remove that cost:
//
//   uninitialized_buffer<T> — a raw, RAII-owned, cache-line-aligned
//     allocation whose pages are faulted in by a parallel first touch but
//     whose contents are NOT value-initialized. Allocations of at least
//     2 MiB sit on a 2 MiB boundary and are advised as transparent huge
//     pages, so random probes over them stop missing the TLB and the
//     first touch takes 2 MiB faults instead of 4 KiB ones.
//
//   workspace — a bump allocator over uninitialized_buffer chunks with
//     high-water-mark reuse. take<T>(n) carves spans out of the current
//     chunk in O(1); when a chunk runs out a new one is chained on (so
//     previously handed-out spans stay valid), and reset() coalesces the
//     chain into a single chunk sized to the observed high-water mark. A
//     workspace that has warmed up over one full engine run therefore
//     serves every later run without touching the system allocator.
//
// A workspace is NOT thread-safe: take()/reset() must be called from the
// orchestrating thread only (the parallel loops then read/write the spans).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace pcc::parallel {

// Allocations of at least one huge page are aligned to it and advised as
// huge pages; smaller ones keep cache-line alignment.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

inline constexpr size_t buffer_alignment(size_t bytes) {
  return bytes >= kHugePageBytes ? kHugePageBytes : kCacheLineBytes;
}

// Ask for transparent huge pages on [p, p + bytes). Must run before the
// range is first touched: a fault then maps a whole 2 MiB page, whereas
// pages faulted earlier stay 4 KiB until khugepaged gets round to them.
// Best effort — a no-op off Linux, and the kernel ignores it under THP
// "never" (under "always" the range was eligible already).
inline void advise_huge_pages(std::byte* p, size_t bytes) {
#ifdef __linux__
  (void)::madvise(p, bytes, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

// Fault in [p, p + bytes) in parallel by touching one byte per page, so
// page placement follows the threads that will use the memory (first-touch
// NUMA policy) instead of the single thread that allocated it. A
// huge-page-aligned range is handed out one huge page per block, so two
// workers never fault the same huge page.
inline void parallel_first_touch(std::byte* p, size_t bytes) {
  constexpr size_t kPage = 4096;
  if (bytes == 0) return;
  const size_t pages = (bytes + kPage - 1) / kPage;
  parallel_for(
      0, pages,
      [&](size_t i) {
        // lint: private-write(one byte per page, pages are disjoint)
        p[i * kPage] = std::byte{0};
      },
      /*grain=*/bytes >= kHugePageBytes ? kHugePageBytes / kPage : 16);
}

// A heap allocation of `count` Ts with NO value initialization, aligned to
// buffer_alignment() of its byte size. Move-only RAII; restricted to trivial
// types (everything the engine stores is a POD id, offset, flag, or packed
// pair).
template <typename T>
class uninitialized_buffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  uninitialized_buffer() = default;

  explicit uninitialized_buffer(size_t count, bool first_touch = true)
      : size_(count) {
    if (count == 0) return;
    const size_t bytes = count * sizeof(T);
    data_ = static_cast<T*>(
        ::operator new(bytes, std::align_val_t{buffer_alignment(bytes)}));
    std::byte* raw = reinterpret_cast<std::byte*>(data_);
    if (buffer_alignment(bytes) == kHugePageBytes) {
      advise_huge_pages(raw, bytes);
    }
    if (first_touch) parallel_first_touch(raw, bytes);
  }

  ~uninitialized_buffer() { release(); }

  uninitialized_buffer(uninitialized_buffer&& o) noexcept
      : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  uninitialized_buffer& operator=(uninitialized_buffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  uninitialized_buffer(const uninitialized_buffer&) = delete;
  uninitialized_buffer& operator=(const uninitialized_buffer&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<T> span() { return {data_, size_}; }

 private:
  void release() {
    // The alignment follows from size_, which moves with data_, so a moved
    // buffer frees with the alignment it was allocated with.
    if (data_ != nullptr) {
      ::operator delete(data_,
                        std::align_val_t{buffer_alignment(size_ * sizeof(T))});
    }
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

// Bump allocator with chunk chaining and high-water-mark reuse.
class workspace {
 public:
  workspace() = default;
  explicit workspace(size_t initial_bytes) { reserve(initial_bytes); }

  workspace(workspace&&) = default;
  workspace& operator=(workspace&&) = default;
  workspace(const workspace&) = delete;
  workspace& operator=(const workspace&) = delete;

  // Ensure at least `bytes` of contiguous capacity exist up front. Only
  // meaningful on an empty (or freshly reset) workspace.
  void reserve(size_t bytes) {
    if (bytes <= capacity()) return;
    assert(used_total() == 0 && "reserve() requires an empty workspace");
    chunks_.clear();
    chunks_.emplace_back(bytes);
    active_ = 0;
  }

  // Carve an uninitialized span of `count` Ts out of the pool. O(1) unless
  // a new chunk must be chained on. Spans stay valid until reset()/rewind
  // past them — chaining never moves existing chunks.
  template <typename T>
  std::span<T> take(size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    if (count == 0) return {};
    const size_t bytes = count * sizeof(T);
    std::byte* p = bump(bytes);
    return {reinterpret_cast<T*>(p), count};
  }

  // take() + parallel zero fill.
  template <typename T>
  std::span<T> take_zeroed(size_t count) {
    std::span<T> s = take<T>(count);
    constexpr size_t kBlock = size_t{1} << 16;
    const size_t bytes = count * sizeof(T);
    const size_t nb = (bytes + kBlock - 1) / kBlock;
    std::byte* base = reinterpret_cast<std::byte*>(s.data());
    parallel_for(
        0, nb,
        [&](size_t b) {
          const size_t lo = b * kBlock;
          // lint: private-write(block b owns bytes [b*kBlock, b*kBlock+len))
          std::memset(base + lo, 0, std::min(kBlock, bytes - lo));
        },
        1);
    return s;
  }

  // take() + parallel fill with `value`.
  template <typename T>
  std::span<T> take_filled(size_t count, T value) {
    std::span<T> s = take<T>(count);
    parallel_for(0, count, [&](size_t i) { s[i] = value; });
    return s;
  }

  // Rewind everything. If the workspace overflowed into extra chunks since
  // the last reset, coalesce them into one chunk sized to the high-water
  // mark plus `headroom` bytes, so the next fill pattern of the same size
  // (or up to `headroom` larger) is chain-free. Invalidates all outstanding
  // spans.
  void reset(size_t headroom = 0) {
    high_water_ = std::max(high_water_, used_total());
    if (chunks_.size() > 1) {
      chunks_.clear();
      chunks_.emplace_back(high_water_ + headroom);
    } else if (!chunks_.empty()) {
      chunks_.front().used = 0;
    }
    active_ = 0;
  }

  // Bytes currently handed out (including alignment padding).
  size_t used_total() const {
    size_t u = 0;
    for (const chunk& c : chunks_) u += c.used;
    return u;
  }

  // Total bytes owned across all chunks.
  size_t capacity() const {
    size_t c = 0;
    for (const chunk& ch : chunks_) c += ch.buf.size();
    return c;
  }

  size_t high_water() const { return std::max(high_water_, used_total()); }

  // True once the workspace is a single chunk — i.e. take() can no longer
  // hit the system allocator for any fill pattern within capacity().
  bool consolidated() const { return chunks_.size() <= 1; }

  // Stack-discipline rewind point.
  struct mark {
    size_t chunk_index = 0;
    size_t offset = 0;
  };

  mark save() const {
    return {active_, chunks_.empty() ? 0 : chunks_[active_].used};
  }

  // Rewind to a previously saved mark, invalidating spans taken since.
  void rewind(mark m) {
    if (chunks_.empty()) return;
    high_water_ = std::max(high_water_, used_total());
    for (size_t i = m.chunk_index + 1; i < chunks_.size(); ++i) {
      chunks_[i].used = 0;
    }
    chunks_[m.chunk_index].used = m.offset;
    active_ = m.chunk_index;
  }

  // RAII rewind-on-exit scope for transient takes.
  class scope {
   public:
    explicit scope(workspace& ws) : ws_(ws), mark_(ws.save()) {}
    ~scope() { ws_.rewind(mark_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    workspace& ws_;
    mark mark_;
  };

 private:
  struct chunk {
    explicit chunk(size_t bytes)
        : buf(std::max<size_t>(bytes, kCacheLineBytes)) {}
    uninitialized_buffer<std::byte> buf;
    size_t used = 0;
  };

  std::byte* bump(size_t bytes) {
    const size_t aligned = align_up(bytes);
    while (true) {
      if (!chunks_.empty()) {
        chunk& c = chunks_[active_];
        if (c.used + aligned <= c.buf.size()) {
          std::byte* p = c.buf.data() + c.used;
          c.used += aligned;
          return p;
        }
        if (active_ + 1 < chunks_.size()) {
          // A later chunk survives from before a rewind: reuse it.
          ++active_;
          chunks_[active_].used = 0;
          continue;
        }
      }
      // Chain on a new chunk, geometrically sized so long fill sequences
      // settle after O(log) allocations.
      const size_t grow = std::max(aligned, capacity());
      chunks_.emplace_back(std::max<size_t>(grow, size_t{1} << 16));
      active_ = chunks_.size() - 1;
    }
  }

  static size_t align_up(size_t bytes) {
    return (bytes + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
  }

  std::vector<chunk> chunks_;
  size_t active_ = 0;
  size_t high_water_ = 0;
};

}  // namespace pcc::parallel
