// Per-thread scratch arenas for the block-parallel kernels.
//
// The simulated GPU kernels run one thread block per pool task; every block
// needs the same small set of temporaries (row-pointer tables, staged tile
// panels, raw accumulators, packed-output masks). Heap-allocating those
// inside the parallel_for lambda serializes blocks on the allocator and
// dominated the seed hot path. A ScratchArena is a bump allocator that each
// worker thread owns: allocations are pointer bumps, reset() recycles the
// whole arena between blocks, and the backing buffer grows to the high-water
// mark once and is then reused forever — zero heap traffic in steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace apnn::parallel {

/// Thread-confined bump allocator. Pointers returned by get() stay valid
/// until the next reset(). Not thread-safe by design: use tls() to obtain
/// the calling thread's private arena.
class ScratchArena {
 public:
  /// All blocks are cache-line aligned (the staged tile panels want it).
  static constexpr std::size_t kAlignment = 64;

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Returns storage for `count` objects of T, aligned to kAlignment. The
  /// memory is NOT zeroed (callers that need zeros fill explicitly — most
  /// uses overwrite every element anyway).
  template <typename T>
  T* get(std::int64_t count) {
    return reinterpret_cast<T*>(
        raw(static_cast<std::size_t>(count) * sizeof(T)));
  }

  /// Marks every byte reusable. If the previous cycle overflowed into
  /// secondary chunks, the arena coalesces to one buffer sized at the
  /// high-water mark so future cycles allocate nothing.
  void reset();

  /// Bytes handed out since the last reset().
  std::size_t used_bytes() const { return used_; }

  /// Largest used_bytes() ever observed — the steady-state footprint a
  /// recurring workload settles at. The high-water stability tests pin that
  /// this stops moving after the first pass over a given shape.
  std::size_t high_water_bytes() const { return high_water_; }

  /// Current backing capacity across all chunks.
  std::size_t capacity_bytes() const { return capacity_; }

  /// Number of heap allocations the arena has performed over its lifetime —
  /// the steady-state-zero-allocation tests watch this counter.
  std::int64_t heap_alloc_count() const { return heap_allocs_; }

  /// The calling thread's private arena for the pool it is serving
  /// (thread_local, built with its first chunk on the first call). Pool
  /// workers build theirs when they start, and live as long as the pool, so
  /// their arenas reach steady state after the first pass over a shape.
  static ScratchArena& tls();

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::byte* raw(std::size_t bytes);
  void add_chunk(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;    ///< chunk currently being bumped
  std::size_t offset_ = 0;    ///< bump offset within the active chunk
  std::size_t used_ = 0;      ///< bytes handed out since reset()
  std::size_t high_water_ = 0;  ///< max used_ over the arena's lifetime
  std::size_t capacity_ = 0;  ///< sum of chunk sizes
  std::int64_t heap_allocs_ = 0;
};

}  // namespace apnn::parallel
