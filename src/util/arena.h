#ifndef GRAPHSIG_UTIL_ARENA_H_
#define GRAPHSIG_UTIL_ARENA_H_

// Task-scoped monotonic bump allocator for the FVMine recursion
// (DESIGN.md §14). One Arena belongs to one task (one FvMine call) and
// never crosses threads; pointers into it die with the task. Allocation
// is a pointer bump; freeing happens either all at once (Reset) or
// stack-wise (Position/Rewind around a recursion frame), which is
// exactly the shape of a depth-first search: everything a frame
// allocates is dead once the frame's subtree has been explored.
//
// Only trivially-destructible types may live here — nothing is ever
// destroyed, memory is just reused. AllocateArray enforces this at
// compile time.
//
// bytes_requested()/allocations() tally every request (including ones
// later rewound). They depend only on the sequence of requests, never on
// chunk geometry, so they are valid deterministic work counters
// (DESIGN.md §12) and feed fvmine/arena_*.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace graphsig::util {

class Arena {
 public:
  explicit Arena(size_t min_chunk_bytes = 1 << 12)
      : min_chunk_bytes_(min_chunk_bytes) {
    GS_CHECK_GT(min_chunk_bytes, 0u);
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // A rewind point. Only valid for Rewind on the Arena it came from, and
  // only while no earlier mark has been rewound past it.
  struct Mark {
    size_t chunk = 0;
    size_t used = 0;
  };

  void* Allocate(size_t bytes, size_t alignment) {
    GS_CHECK_GT(alignment, 0u);
    GS_CHECK_LE(alignment, alignof(std::max_align_t));
    GS_CHECK_EQ(alignment & (alignment - 1), 0u);  // power of two
    bytes_requested_ += bytes;
    ++allocations_;
    while (true) {
      if (active_ < chunks_.size()) {
        Chunk& c = chunks_[active_];
        const size_t aligned = (c.used + alignment - 1) & ~(alignment - 1);
        if (aligned + bytes <= c.size) {
          c.used = aligned + bytes;
          return c.data.get() + aligned;
        }
        // Doesn't fit; try the next (possibly recycled) chunk.
        if (active_ + 1 < chunks_.size()) {
          ++active_;
          chunks_[active_].used = 0;
          continue;
        }
      }
      AddChunk(bytes + alignment);
    }
  }

  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is reused, never destroyed");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  Mark Position() const {
    if (active_ >= chunks_.size()) return {0, 0};
    return {active_, chunks_[active_].used};
  }

  // Frees (for reuse) everything allocated since `mark`. Chunks are kept.
  void Rewind(const Mark& mark) {
    if (chunks_.empty()) return;
    GS_CHECK_LT(mark.chunk, chunks_.size());
    for (size_t i = mark.chunk + 1; i <= active_ && i < chunks_.size(); ++i) {
      chunks_[i].used = 0;
    }
    active_ = mark.chunk;
    chunks_[active_].used = mark.used;
  }

  // Frees everything for reuse; chunk memory is retained.
  void Reset() { Rewind({0, 0}); }

  // Deterministic tallies over every request ever made (rewinds do not
  // subtract): total bytes and number of Allocate calls.
  uint64_t bytes_requested() const { return bytes_requested_; }
  uint64_t allocations() const { return allocations_; }

  // Bytes of chunk capacity currently held (advisory; depends on growth).
  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;  // operator new[] alignment (>= 16)
    size_t size = 0;
    size_t used = 0;
  };

  void AddChunk(size_t min_bytes) {
    size_t size = chunks_.empty() ? min_chunk_bytes_ : chunks_.back().size * 2;
    if (size < min_bytes) size = min_bytes;
    chunks_.push_back({std::make_unique<char[]>(size), size, 0});
    active_ = chunks_.size() - 1;
  }

  const size_t min_chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t active_ = 0;  // == chunks_.size() only before the first chunk
  uint64_t bytes_requested_ = 0;
  uint64_t allocations_ = 0;
};

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_ARENA_H_
