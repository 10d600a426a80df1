#include "src/parallel/scratch.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/parallel/thread_pool.hpp"

namespace apnn::parallel {

namespace {

constexpr std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

/// First chunk size: big enough for a typical block's temporaries so most
/// shapes never grow at all.
constexpr std::size_t kInitialChunkBytes = std::size_t{1} << 16;  // 64 KiB

}  // namespace

void ScratchArena::add_chunk(std::size_t min_bytes) {
  // Geometric growth keeps the number of lifetime allocations logarithmic in
  // the high-water mark.
  const std::size_t size = std::max(
      {align_up(min_bytes, kAlignment), kInitialChunkBytes, capacity_});
  Chunk c;
  // operator new guarantees only alignof(max_align_t); over-allocate and let
  // raw() align the bump pointer instead of relying on the base address.
  // Left uninitialized: pages an arena never reaches stay unbacked.
  c.data = std::make_unique_for_overwrite<std::byte[]>(size + kAlignment);
  c.size = size;
  ++heap_allocs_;
  capacity_ += size;
  chunks_.push_back(std::move(c));
}

std::byte* ScratchArena::raw(std::size_t bytes) {
  bytes = align_up(std::max<std::size_t>(bytes, 1), kAlignment);
  for (;;) {
    if (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
      const std::size_t skew = align_up(base, kAlignment) - base;
      if (offset_ + bytes <= c.size) {
        std::byte* p = c.data.get() + skew + offset_;
        offset_ += bytes;
        used_ += bytes;
        high_water_ = std::max(high_water_, used_);
        return p;
      }
      // Active chunk exhausted: move on (leftover bytes are reclaimed by the
      // coalescing reset()).
      ++active_;
      offset_ = 0;
      continue;
    }
    add_chunk(bytes);
    active_ = chunks_.size() - 1;
    offset_ = 0;
  }
}

void ScratchArena::reset() {
  if (chunks_.size() > 1) {
    // The last cycle spilled over chunk boundaries. Replace the fragments
    // with one buffer covering the whole high-water footprint so the next
    // cycle bump-allocates from a single block and never spills again.
    const std::size_t total = capacity_;
    chunks_.clear();
    capacity_ = 0;
    add_chunk(total);
  }
  active_ = 0;
  offset_ = 0;
  used_ = 0;
}

ScratchArena& ScratchArena::tls() {
  // Keyed per (thread x pool identity), not per process-wide thread: a thread
  // serving several pool slices (a work-stealing worker, or the global pool's
  // caller later entering a slice) gets a distinct arena per slice, so a
  // slice's slabs are touched only by the cores that consume its work. The
  // key is opaque — compared, never dereferenced — so a dead pool's slot
  // simply goes cold (bounded by the handful of pools a thread ever serves).
  struct Slot {
    const void* key;
    std::unique_ptr<ScratchArena> arena;
  };
  static thread_local std::vector<Slot> slots;
  const void* key = ThreadPool::current_key();
  for (Slot& s : slots) {
    if (s.key == key) return *s.arena;
  }
  // Built whole, first chunk included, so a thread that creates its arena
  // ahead of work (ThreadPool::worker_loop) allocates nothing on its first
  // block.
  auto arena = std::make_unique<ScratchArena>();
  arena->add_chunk(0);
  slots.push_back(Slot{key, std::move(arena)});
  return *slots.back().arena;
}

}  // namespace apnn::parallel
