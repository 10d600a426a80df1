// Host thread pool used to execute blocks of the simulated GPU grid.
//
// The APNN-TC kernels are written as loops over thread blocks; on the host we
// farm independent blocks across a pool. Exceptions thrown by tasks are
// captured and rethrown on the caller's thread.
//
// Pools can be carved into disjoint slices: each InferenceServer replica owns
// a private pool instead of all replicas oversubscribing the process-global
// pool. Slices registered in one WorkStealGroup steal queued helper entries
// from busy siblings when idle.
//
// parallel_for allocates nothing: the loop descriptor lives on the caller's
// stack, the body is a non-owning reference, and helpers are queued as
// descriptor pointers in a fixed-capacity ring (DESIGN.md §10).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace apnn {

class ThreadPool;

/// Registry that lets idle member pools steal queued helper entries from
/// busy siblings. Members register at construction and unregister at
/// destruction; the group must outlive every member pool.
class WorkStealGroup {
 public:
  WorkStealGroup() = default;
  WorkStealGroup(const WorkStealGroup&) = delete;
  WorkStealGroup& operator=(const WorkStealGroup&) = delete;

  /// Total helper entries stolen across the group's lifetime.
  std::int64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Number of currently registered pools.
  int pools() const;

 private:
  friend class ThreadPool;

  void add(ThreadPool* pool);
  void remove(ThreadPool* pool);
  /// Bumps the group-wide pending count and wakes idle siblings of `owner`.
  void note_enqueued(std::int64_t n, ThreadPool* owner);
  void note_dequeued(std::int64_t n) {
    pending_.fetch_sub(n, std::memory_order_acq_rel);
  }
  std::int64_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }
  /// Joins a sibling's loop as a helper and runs its chunks on this thread.
  bool steal_and_run(ThreadPool* thief);
  /// Worker threads owned by members other than `self` (helper budget).
  std::int64_t workers_besides(const ThreadPool* self) const;

  mutable std::mutex mu_;
  std::vector<ThreadPool*> members_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::int64_t> total_workers_{0};
};

/// Fixed-size worker pool with a blocking parallel_for.
class ThreadPool {
 public:
  /// Non-owning reference to a loop body `void(std::int64_t)`. Binds to any
  /// callable — a call-site lambda or a `const std::function&` — without
  /// copying it; the callable must outlive the parallel_for call, which a
  /// temporary at the call site does.
  class Body {
   public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, Body>>>
    Body(F&& f)  // implicit, so call sites pass a lambda directly
        : obj_(const_cast<void*>(
              static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, std::int64_t i) {
            (*static_cast<std::remove_reference_t<F>*>(obj))(i);
          }) {}

    void operator()(std::int64_t i) const { call_(obj_, i); }

   private:
    void* obj_;
    void (*call_)(void*, std::int64_t);
  };

  /// Helper entries one pool can hold queued at once. A loop queues at most
  /// the free slots; the chunks no helper takes run on the caller.
  static constexpr std::size_t kRingSlots = 64;

  /// Logical width `width` (the participating caller plus width - 1
  /// workers); 0 means hardware_concurrency(). A non-null `group` (which
  /// must outlive the pool) lets idle siblings steal this pool's helpers.
  /// Each worker builds its scratch arena when it starts; the first
  /// parallel_for waits until all have.
  explicit ThreadPool(unsigned width = 0, WorkStealGroup* group = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads spawned (logical width minus the participating caller).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(i) for i in [begin, end), partitioned into chunks of `grain`
  /// indices, blocking until every index has completed. The calling thread
  /// participates and waits only on this loop's own chunks. Rethrows the
  /// first task exception. Performs no heap allocation.
  void parallel_for(std::int64_t begin, std::int64_t end, Body fn,
                    std::int64_t grain = 1);

  /// Helper entries currently queued in this pool's ring (for tests).
  std::size_t queued_helpers() const;

  /// Identity of the pool whose work the calling thread is currently
  /// executing (nullptr outside any pool task). Used purely as an opaque key
  /// — e.g. ScratchArena::tls() keys arenas per (thread x pool) so a slice's
  /// slabs are touched only by the cores that consume them. Never
  /// dereference: the pool may be gone by the time the key is compared.
  static const void* current_key();

  /// Process-wide pool (lazily constructed).
  static ThreadPool& global();

 private:
  friend class WorkStealGroup;

  struct Loop;

  void worker_loop();
  /// Pops ring entries until one admits this thread as a helper of its
  /// loop (unclaimed chunks remain); stale entries are dropped. Caller
  /// holds mu_.
  Loop* join_locked();
  /// Runs a joined loop's chunks, then leaves its join latch.
  static void help(Loop& loop);

  std::vector<std::thread> workers_;
  Loop* ring_[kRingSlots] = {};
  std::size_t head_ = 0;   ///< index of the oldest entry
  std::size_t count_ = 0;  ///< entries queued
  mutable std::mutex mu_;  // guards ring_/head_/count_/stop_ and joins
  std::condition_variable cv_;
  bool stop_ = false;
  /// Workers past their arena build; incremented under mu_.
  std::atomic<std::size_t> started_{0};
  WorkStealGroup* group_ = nullptr;
};

/// Convenience wrapper over ThreadPool::global().
void parallel_for(std::int64_t begin, std::int64_t end, ThreadPool::Body fn,
                  std::int64_t grain = 1);

}  // namespace apnn
