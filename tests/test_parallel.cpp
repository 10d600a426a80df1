#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <new>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/parallel/scratch.hpp"
#include "src/parallel/thread_pool.hpp"

// --- global allocation counter ----------------------------------------------
// Counts every operator-new in this binary, so the zero-allocation test sees
// helper-side allocations on worker threads too.
namespace {
std::atomic<std::int64_t> g_allocs{0};
}

// noinline: keeps GCC from pairing an inlined new with free() and raising
// -Wmismatched-new-delete on this malloc/free counting allocator.
#if defined(__GNUC__)
#define APNN_TEST_NOINLINE __attribute__((noinline))
#else
#define APNN_TEST_NOINLINE
#endif

APNN_TEST_NOINLINE void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
APNN_TEST_NOINLINE void* operator new[](std::size_t sz) {
  return ::operator new(sz);
}
APNN_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
APNN_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
APNN_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
APNN_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace apnn {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RespectsRange) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(10, 20, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, GrainBatchesWork) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(256);
  pool.parallel_for(0, 256, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; }, 32);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::int64_t i) {
                          if (i == 42) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, SingleThreadedFallback) {
  ThreadPool pool(1);
  std::int64_t sum = 0;  // safe: no workers, caller runs everything
  pool.parallel_for(0, 100, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 50, [&](std::int64_t) { ++count; });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<std::int64_t> sum{0};
  parallel_for(0, 64, [&](std::int64_t i) { sum += i * i; });
  std::int64_t expect = 0;
  for (int i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum.load(), expect);
}

// --- pool slices (per-replica topology) -------------------------------------

// Two independent pools must own disjoint worker threads: a slice never
// executes on a sibling slice's cores unless a WorkStealGroup says so.
TEST(ThreadPoolSlices, WorkerSetsAreDisjoint) {
  ThreadPool a(3), b(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> ids_a, ids_b;
  // Enough slow chunks that every worker of the owning pool executes some.
  auto collect = [&](ThreadPool& pool, std::set<std::thread::id>& ids) {
    pool.parallel_for(0, 64, [&](std::int64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  };
  collect(a, ids_a);
  collect(b, ids_b);
  for (const std::thread::id& id : ids_a) {
    if (id == caller) continue;  // the caller participates in both loops
    EXPECT_EQ(ids_b.count(id), 0u) << "worker thread executed on both pools";
  }
}

// Loops on distinct slices running concurrently (one per client thread) each
// see exactly their own indices — the serving pattern of N replicas running
// batches at once, minus the sessions.
TEST(ThreadPoolSlices, ConcurrentLoopsOnDistinctSlicesAreIndependent) {
  ThreadPool a(2), b(2);
  std::atomic<std::int64_t> sum_a{0}, sum_b{0};
  std::thread ta([&] {
    for (int round = 0; round < 20; ++round) {
      a.parallel_for(0, 100, [&](std::int64_t i) { sum_a += i; });
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 20; ++round) {
      b.parallel_for(0, 100, [&](std::int64_t i) { sum_b += i; });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(sum_a.load(), 20 * 4950);
  EXPECT_EQ(sum_b.load(), 20 * 4950);
}

// current_key() names the pool whose loop the thread is executing, through
// nesting across slices and back — ScratchArena::tls() keys arenas on it.
TEST(ThreadPoolSlices, CurrentKeyTracksExecutingPool) {
  EXPECT_EQ(ThreadPool::current_key(), nullptr);
  ThreadPool a(2), b(2);
  std::atomic<int> bad{0};
  a.parallel_for(0, 8, [&](std::int64_t) {
    if (ThreadPool::current_key() != static_cast<const void*>(&a)) ++bad;
    b.parallel_for(0, 4, [&](std::int64_t) {
      if (ThreadPool::current_key() != static_cast<const void*>(&b)) ++bad;
    });
    if (ThreadPool::current_key() != static_cast<const void*>(&a)) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ThreadPool::current_key(), nullptr);
}

// Every pool's blocked caller waits only on its own loop's chunks; nested
// loops on the same pool still run to completion.
TEST(ThreadPoolSlices, BoundedWaitSliceRunsNestedLoops) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, 16, [&](std::int64_t i) {
    std::atomic<std::int64_t> inner{0};
    pool.parallel_for(0, 8, [&](std::int64_t j) { inner += j; });
    EXPECT_EQ(inner.load(), 28);
    sum += i;
  });
  EXPECT_EQ(sum.load(), 120);
}

// --- work stealing between slices -------------------------------------------

TEST(WorkStealGroup, TracksMembership) {
  WorkStealGroup group;
  EXPECT_EQ(group.pools(), 0);
  {
    ThreadPool a(2, &group);
    EXPECT_EQ(group.pools(), 1);
    {
      ThreadPool b(2, &group);
      EXPECT_EQ(group.pools(), 2);
    }
    EXPECT_EQ(group.pools(), 1);
  }
  EXPECT_EQ(group.pools(), 0);
  EXPECT_EQ(group.steals(), 0);
}

// Synthetic imbalance: slice A runs a long loop while slice B sits idle in
// the same group. B's worker must steal A's queued helper entry and absorb
// chunks; the loop's results stay exact (every index exactly once).
TEST(WorkStealGroup, IdleSiblingStealsUnderImbalance) {
  WorkStealGroup group;
  ThreadPool a(2, &group), b(2, &group);  // 1 worker each
  // Retry: stealing is a race the idle sibling should win within a ~60 ms
  // loop, but nothing forces it on a loaded host — keep trying briefly.
  for (int round = 0; round < 20 && group.steals() == 0; ++round) {
    std::vector<std::atomic<int>> hits(32);
    a.parallel_for(0, 32, [&](std::int64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      hits[static_cast<std::size_t>(i)]++;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    EXPECT_EQ(a.queued_helpers(), 0u);
    EXPECT_EQ(b.queued_helpers(), 0u);
  }
  EXPECT_GT(group.steals(), 0)
      << "idle sibling never stole from the loaded slice";
}

// A grouped 1-wide slice (slice_threads = 1: the dispatcher is the whole
// slice) still fans out — its helper budget comes from sibling workers.
TEST(WorkStealGroup, OneWideSliceFansOutViaSiblings) {
  WorkStealGroup group;
  ThreadPool a(1, &group), helpers(3, &group);
  for (int round = 0; round < 20 && group.steals() == 0; ++round) {
    std::vector<std::atomic<int>> hits(24);
    a.parallel_for(0, 24, [&](std::int64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hits[static_cast<std::size_t>(i)]++;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  EXPECT_GT(group.steals(), 0);
}

// --- stale-helper / dangling-capture regression ------------------------------

// Queued helpers point at the parallel_for frame: a helper dequeued after
// the loop returned would dereference a dead stack frame. The loop erases
// its unclaimed entries on return and waits out the helpers that took one —
// pin both.
TEST(ThreadPool, StaleHelpersAreErasedNotDangled) {
  ThreadPool pool(2);  // one worker
  std::atomic<bool> gate{false};
  std::atomic<int> blockers{0};
  // Occupy the worker (and the helper thread's caller slot) with a loop
  // whose chunks spin on `gate`.
  std::thread blocked([&] {
    pool.parallel_for(0, 2, [&](std::int64_t) {
      ++blockers;
      while (!gate.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  });
  // Both chunks claimed (caller + worker) before proceeding, so the worker
  // is known to be stuck inside the blocked loop.
  while (blockers.load() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // With the worker busy, this loop's caller drains every chunk itself;
  // its queued helper entry must be gone by the time parallel_for returns —
  // erased (stale) or absorbed, never left to fire against a dead frame.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::int64_t) { ++count; });
    ASSERT_EQ(count.load(), 64);
  }
  EXPECT_EQ(pool.queued_helpers(), 0u);
  gate = true;
  blocked.join();
  // The worker must come back healthy after the blocked loop drains.
  std::atomic<int> after{0};
  pool.parallel_for(0, 128, [&](std::int64_t) { ++after; });
  EXPECT_EQ(after.load(), 128);
  EXPECT_EQ(pool.queued_helpers(), 0u);
}

// --- heap-free loop path -----------------------------------------------------

// A warm parallel_for allocates nothing at any width, grouped or not, with a
// call-site lambda or a `const std::function&` body: the loop descriptor is
// on the caller's stack and helpers queue as ring pointers.
TEST(ThreadPool, ParallelForAllocatesNothing) {
  WorkStealGroup group;
  ThreadPool w1(1), w2(2), w4(4);
  ThreadPool grouped(2, &group), sibling(2, &group);
  std::atomic<std::int64_t> sum{0};
  const std::function<void(std::int64_t)> fbody = [&](std::int64_t i) {
    sum += i;
  };
  // Warm every pool before measuring any: a pool's workers build their
  // scratch arenas when they start, which must not land in another pool's
  // measurement.
  for (ThreadPool* pool : {&w1, &w2, &w4, &grouped, &sibling}) {
    pool->parallel_for(0, 64, fbody);
  }
  for (ThreadPool* pool : {&w1, &w2, &w4, &grouped}) {
    sum = 0;
    pool->parallel_for(0, 64, fbody);  // warm
    const std::int64_t before = g_allocs.load();
    for (int rep = 0; rep < 100; ++rep) {
      pool->parallel_for(0, 64, [&](std::int64_t i) { sum += i; });
      pool->parallel_for(0, 64, fbody);
    }
    EXPECT_EQ(g_allocs.load() - before, 0)
        << "width " << pool->size() + 1;
    EXPECT_EQ(sum.load(), 201 * 2016);
  }
}

// A worker builds its scratch arena when it starts, not on its first block:
// a loop that reaches every thread of a fresh pool for the first time still
// allocates nothing, even though warm-up ran on the caller alone.
TEST(ThreadPool, WorkerArenasExistBeforeTheirFirstBlock) {
  ThreadPool pool(4);
  const auto use_arena = [] {
    parallel::ScratchArena& arena = parallel::ScratchArena::tls();
    arena.reset();
    arena.get<std::uint64_t>(64)[0] = 1;
  };
  pool.parallel_for(0, 1, [&](std::int64_t) { use_arena(); });  // caller only
  std::atomic<int> arrived{0};
  const std::int64_t before = g_allocs.load();
  // Each of the 4 chunks waits until all are claimed, so each runs on a
  // distinct thread.
  pool.parallel_for(0, 4, [&](std::int64_t) {
    use_arena();
    ++arrived;
    while (arrived.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(g_allocs.load() - before, 0);
}

// Runs one 2-chunk loop whose body writes into this frame. The caller
// usually finishes both chunks while a helper that took the entry is still
// arriving; the join latch must keep the frame alive until it has left.
void two_chunk_loop(ThreadPool& pool, std::atomic<int>& bad) {
  std::int64_t seen[2] = {-1, -1};
  const std::int64_t tag = 0x5eed;
  pool.parallel_for(0, 2, [&](std::int64_t i) { seen[i] = tag + i; });
  if (seen[0] != tag || seen[1] != tag + 1) ++bad;
}

// Stress for the latch, own workers and thieves alike (the ASan and TSan
// legs run it): callers' frames go out of scope right after each loop.
TEST(ThreadPool, CallerFramesOutliveLateHelpers) {
  WorkStealGroup group;
  ThreadPool a(2, &group), b(2, &group), c(4);
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (ThreadPool* pool : {&a, &b, &c}) {
    callers.emplace_back([pool, &bad] {
      for (int rep = 0; rep < 40000; ++rep) two_chunk_loop(*pool, bad);
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(a.queued_helpers(), 0u);
  EXPECT_EQ(b.queued_helpers(), 0u);
  EXPECT_EQ(c.queued_helpers(), 0u);
}

// More concurrent callers than the ring has slots: the overflow callers
// queue no helper and run every chunk themselves; every index still runs
// exactly once.
TEST(ThreadPool, MoreCallersThanRingSlots) {
  ThreadPool pool(2);  // one worker: each loop queues one helper entry
  std::atomic<bool> worker_gate{false}, caller_gate{false};
  std::atomic<int> blockers{0};
  std::thread blocked([&] {
    pool.parallel_for(0, 2, [&](std::int64_t) {
      ++blockers;
      while (!worker_gate.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  });
  while (blockers.load() < 2) {  // the worker is stuck in `blocked`
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  constexpr int kCallers = static_cast<int>(ThreadPool::kRingSlots) + 8;
  std::atomic<int> inside{0}, bad{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      std::atomic<int> hits[2] = {0, 0};
      pool.parallel_for(0, 2, [&](std::int64_t i) {
        if (i == 0) {
          ++inside;  // entry (if any) is queued; hold chunk 1 unclaimed
          while (!caller_gate.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        hits[i]++;
      });
      if (hits[0].load() != 1 || hits[1].load() != 1) ++bad;
    });
  }
  while (inside.load() < kCallers) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(pool.queued_helpers(), ThreadPool::kRingSlots);
  caller_gate = true;
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pool.queued_helpers(), 0u);
  worker_gate = true;
  blocked.join();
  std::atomic<int> after{0};
  pool.parallel_for(0, 128, [&](std::int64_t) { ++after; });
  EXPECT_EQ(after.load(), 128);
}

}  // namespace
}  // namespace apnn
