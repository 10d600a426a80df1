#include "bench/e2e/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

// Replacing the plain and aligned forms covers every new-expression: the
// array and nothrow forms forward to these by default.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace apnn::e2e {

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

Tracer::Tracer(std::size_t capacity)
    : spans_(capacity), epoch_(Clock::now()) {}

void Tracer::record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::uint64_t req, Clock::time_point t0,
                    Clock::time_point t1) {
  const std::size_t slot = used_.fetch_add(1);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1);
    return;
  }
  spans_[slot] = {name, id, parent, req, t0, t1, thread_index()};
}

std::size_t Tracer::recorded() const {
  return std::min(used_.load(), spans_.size());
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
    return;
  }
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  for (std::size_t i = 0; i < recorded(); ++i) {
    const Record& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"tid\":%u,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.tid, us(s.t0),
                 us(s.t1));
  }
  std::fclose(f);
}

}  // namespace apnn::e2e
