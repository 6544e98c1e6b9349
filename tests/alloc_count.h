// Counting global operator new/delete for tests that pin allocation
// behaviour: how many times a code path allocates, and how many heap bytes
// it leaves live. Include it from exactly one source file of a test
// binary — it replaces the program's global allocation functions. The
// counters are global and atomic, so allocations on pool threads count too.
#ifndef LDPIDS_TESTS_ALLOC_COUNT_H_
#define LDPIDS_TESTS_ALLOC_COUNT_H_

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace ldpids::alloc_count {

inline std::atomic<uint64_t> alloc_calls{0};
inline std::atomic<int64_t> live_heap_bytes{0};

// operator new calls so far.
inline uint64_t AllocCalls() {
  return alloc_calls.load(std::memory_order_relaxed);
}

// Bytes held by live operator new allocations (usable sizes).
inline int64_t LiveHeapBytes() {
  return live_heap_bytes.load(std::memory_order_relaxed);
}

}  // namespace ldpids::alloc_count

// The array, nothrow and sized forms default to these two.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  ldpids::alloc_count::alloc_calls.fetch_add(1, std::memory_order_relaxed);
  ldpids::alloc_count::live_heap_bytes.fetch_add(
      static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  ldpids::alloc_count::live_heap_bytes.fetch_sub(
      static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

#endif  // LDPIDS_TESTS_ALLOC_COUNT_H_
