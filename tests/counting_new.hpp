// Global allocation counter for tests that assert a path allocates
// nothing. Replacing operator new is per-binary: include this header
// from one test executable's single source file, and only that
// executable pays for the bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
// The nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them), so every block reaches operator delete's free() from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
