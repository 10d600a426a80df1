// Benchmark-side instrumentation: an allocation counter and a span buffer.
//
// Both observe the serving stack from outside. The counter is an
// operator new replacement linked into the benchmark binary only
// (alloc_count.cpp), so it counts every heap allocation the process makes,
// library code included. Spans are recorded around the benchmark's own calls
// into each layer; the library itself is not instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace apnn::e2e {

/// Heap allocations (operator new calls) made by this process so far.
std::int64_t allocations();

/// Milliseconds of steady-clock time since `t0`.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fixed-capacity span buffer, preallocated so recording never allocates.
/// Spans past the capacity are dropped and counted. Thread-safe.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(std::size_t capacity);

  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }
  /// `parent` is the id of the span that caused this one (0: none); `req`
  /// tags every span of one request (0: not request-scoped).
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t req, Clock::time_point t0, Clock::time_point t1);

  std::size_t recorded() const;
  std::int64_t dropped() const { return dropped_.load(); }

  /// One JSON object per line, in recording order. Times are microseconds
  /// since the tracer was created.
  void write_jsonl(const std::string& path) const;

 private:
  struct Record {
    const char* name = nullptr;  ///< string literal
    std::uint64_t id = 0, parent = 0, req = 0;
    Clock::time_point t0, t1;
    std::uint32_t tid = 0;
  };
  std::vector<Record> spans_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::int64_t> dropped_{0};
  const Clock::time_point epoch_;
};

/// RAII span: starts at construction, records at destruction. A null tracer
/// makes it a no-op that never reads the clock.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent = 0,
       std::uint64_t req = 0)
      : tracer_(tracer), name_(name), parent_(parent), req_(req) {
    if (tracer_ != nullptr) {
      id_ = tracer_->new_id();
      t0_ = Tracer::Clock::now();
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, id_, parent_, req_, t0_, Tracer::Clock::now());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_, req_;
  std::uint64_t id_ = 0;
  Tracer::Clock::time_point t0_;
};

}  // namespace apnn::e2e
