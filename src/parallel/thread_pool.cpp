#include "src/parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "src/common/check.hpp"
#include "src/parallel/scratch.hpp"

namespace apnn {

namespace {

/// Pool whose task (or participating parallel_for) the thread is running.
thread_local const ThreadPool* tls_current_pool = nullptr;

/// RAII save/restore so nested loops and exceptions unwind the key correctly.
struct CurrentPoolScope {
  explicit CurrentPoolScope(const ThreadPool* pool)
      : saved(tls_current_pool) {
    tls_current_pool = pool;
  }
  ~CurrentPoolScope() { tls_current_pool = saved; }
  const ThreadPool* saved;
};

}  // namespace

/// One parallel_for call, living on the caller's stack. Ring entries point
/// at it; the join latch (`joined` / `left`) keeps the frame alive until
/// every helper that took an entry has finished with it.
struct ThreadPool::Loop {
  Loop(Body f, std::int64_t b, std::int64_t e, std::int64_t g,
       std::int64_t n)
      : fn(f), begin(b), end(e), grain(g), nchunks(n) {}

  const Body fn;
  const std::int64_t begin;
  const std::int64_t end;
  const std::int64_t grain;
  const std::int64_t nchunks;
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  /// Helpers admitted; written under the owning pool's mu_, and only while
  /// the caller still has entries queued.
  int joined = 0;
  int left = 0;  ///< helpers finished; guarded by mu
  std::exception_ptr error;  // guarded by mu
  std::mutex mu;
  std::condition_variable left_cv;

  /// Drains the shared chunk counter; returns once every chunk is claimed.
  void run_chunks() {
    for (;;) {
      const std::int64_t c = next.fetch_add(1);
      if (c >= nchunks) return;
      const std::int64_t lo = begin + c * grain;
      const std::int64_t hi = std::min<std::int64_t>(lo + grain, end);
      if (failed.load(std::memory_order_relaxed)) continue;
      try {
        for (std::int64_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  }
};

int WorkStealGroup::pools() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(members_.size());
}

void WorkStealGroup::add(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  members_.push_back(pool);
  total_workers_.fetch_add(static_cast<std::int64_t>(pool->workers_.size()),
                           std::memory_order_relaxed);
}

void WorkStealGroup::remove(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  members_.erase(std::remove(members_.begin(), members_.end(), pool),
                 members_.end());
  total_workers_.fetch_sub(static_cast<std::int64_t>(pool->workers_.size()),
                           std::memory_order_relaxed);
}

std::int64_t WorkStealGroup::workers_besides(const ThreadPool* self) const {
  const std::int64_t own = static_cast<std::int64_t>(self->workers_.size());
  const std::int64_t total = total_workers_.load(std::memory_order_relaxed);
  return std::max<std::int64_t>(0, total - own);
}

void WorkStealGroup::note_enqueued(std::int64_t n, ThreadPool* owner) {
  pending_.fetch_add(n, std::memory_order_acq_rel);
  // Wake idle sibling workers so they can steal. Taking each sibling's mutex
  // (empty critical section) before notifying orders the wake after its
  // predicate check; the group lock keeps the member alive while we touch it.
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadPool* p : members_) {
    if (p == owner) continue;
    { std::lock_guard<std::mutex> plock(p->mu_); }
    p->cv_.notify_all();
  }
}

bool WorkStealGroup::steal_and_run(ThreadPool* thief) {
  ThreadPool::Loop* loop = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ThreadPool* p : members_) {
      if (p == thief) continue;
      // Joining under the victim's lock is what its caller's erase-and-wait
      // synchronizes with, exactly as for the victim's own workers.
      std::lock_guard<std::mutex> plock(p->mu_);
      loop = p->join_locked();
      if (loop != nullptr) break;
    }
  }
  if (loop == nullptr) return false;
  steals_.fetch_add(1, std::memory_order_relaxed);
  ThreadPool::help(*loop);
  return true;
}

ThreadPool::ThreadPool(unsigned width, WorkStealGroup* group)
    : group_(group) {
  if (width == 0) width = std::max(1u, std::thread::hardware_concurrency());
  // The caller participates in parallel_for, so spawn one fewer worker.
  workers_.reserve(width - 1);
  for (unsigned i = 1; i < width; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (group_ != nullptr) group_->add(this);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Every loop erases its own entries before returning, so the ring is
  // empty here; once remove() returns no sibling can reach it.
  if (group_ != nullptr) group_->remove(this);
}

std::size_t ThreadPool::queued_helpers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

const void* ThreadPool::current_key() { return tls_current_pool; }

ThreadPool::Loop* ThreadPool::join_locked() {
  while (count_ > 0) {
    Loop* loop = ring_[head_];
    head_ = (head_ + 1) % kRingSlots;
    --count_;
    if (group_ != nullptr) group_->note_dequeued(1);
    if (loop->next.load() < loop->nchunks) {
      ++loop->joined;
      return loop;
    }
  }
  return nullptr;
}

void ThreadPool::help(Loop& loop) {
  loop.run_chunks();
  // Notify under the lock: the caller cannot observe the final count, and
  // so cannot unwind the frame holding `loop`, until this unlock.
  std::lock_guard<std::mutex> lock(loop.mu);
  ++loop.left;
  loop.left_cv.notify_one();
}

void ThreadPool::worker_loop() {
  CurrentPoolScope scope(this);
  // Build this thread's own-pool scratch arena before any work arrives, so
  // a warm pool is allocation-free whichever threads ran warm-up blocks.
  parallel::ScratchArena::tls();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
  for (;;) {
    Loop* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_ || count_ > 0 ||
               (group_ != nullptr && group_->pending() > 0);
      });
      if (stop_) return;
      loop = join_locked();
    }
    if (loop != nullptr) {
      help(*loop);
      continue;
    }
    // Own ring empty but the group has pending work: steal from a sibling.
    if (group_ != nullptr && group_->steal_and_run(this)) continue;
    std::this_thread::yield();  // lost the race; re-check the predicate
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, Body fn,
                              std::int64_t grain) {
  APNN_CHECK(grain >= 1) << "grain=" << grain;
  if (begin >= end) return;
  // A fresh pool's first loop waits until every worker has built its
  // scratch arena (worker_loop), so no loop after it pays for one.
  if (started_.load(std::memory_order_acquire) < workers_.size()) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return started_.load(std::memory_order_relaxed) == workers_.size();
    });
  }
  CurrentPoolScope scope(this);
  const std::int64_t n = end - begin;
  const std::int64_t nchunks = (n + grain - 1) / grain;
  // Helper budget: own workers plus, when grouped, idle siblings that could
  // steal a queued entry (a 1-wide slice in a group still fans out).
  const std::int64_t budget =
      static_cast<std::int64_t>(workers_.size()) +
      (group_ != nullptr ? group_->workers_besides(this) : 0);
  std::int64_t helpers = std::min<std::int64_t>(budget, nchunks - 1);
  if (helpers <= 0) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  Loop loop(fn, begin, end, grain, nchunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A full ring queues fewer helpers; the caller runs what they would.
    helpers = std::min<std::int64_t>(
        helpers, static_cast<std::int64_t>(kRingSlots - count_));
    for (std::int64_t i = 0; i < helpers; ++i) {
      ring_[(head_ + count_) % kRingSlots] = &loop;
      ++count_;
    }
  }
  if (helpers > 0) {
    cv_.notify_all();
    if (group_ != nullptr) group_->note_enqueued(helpers, this);
  }

  loop.run_chunks();  // caller participates

  // Every chunk is claimed. Erase the entries no helper took (they could
  // only find the loop exhausted), which also closes admission: after this
  // critical section `joined` is final.
  int joined = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      Loop* e = ring_[(head_ + i) % kRingSlots];
      if (e != &loop) ring_[(head_ + kept++) % kRingSlots] = e;
    }
    if (group_ != nullptr && kept < count_) {
      group_->note_dequeued(static_cast<std::int64_t>(count_ - kept));
    }
    count_ = kept;
    joined = loop.joined;
  }
  // The latch: every admitted helper is running a chunk or about to leave;
  // wait for all of them before this frame (and `loop`) goes away. Once they
  // have left, every chunk has completed.
  if (joined > 0) {
    std::unique_lock<std::mutex> lock(loop.mu);
    loop.left_cv.wait(lock, [&] { return loop.left == joined; });
  }

  if (loop.failed.load()) std::rethrow_exception(loop.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::int64_t begin, std::int64_t end, ThreadPool::Body fn,
                  std::int64_t grain) {
  ThreadPool::global().parallel_for(begin, end, fn, grain);
}

}  // namespace apnn
