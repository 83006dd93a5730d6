#pragma once
// Aligned allocator for SIMD-friendly buffers. Tensor data/grad storage
// uses the 64-byte default so the AVX2 kernels (clo/nn/kernel.hpp)
// start every buffer on a full cache line; the kernels themselves still
// use unaligned loads (interior slices of a tensor are not aligned), so
// alignment is a performance property, never a correctness requirement.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace clo::util {

template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must be at least the type's natural alignment");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t bytes =
        (n * sizeof(T) + Alignment - 1) & ~(Alignment - 1);
    void* p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return true;
}
template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return false;
}

/// 64-byte-aligned float buffer — the Tensor storage type.
using AlignedFloats = std::vector<float, AlignedAllocator<float, 64>>;

}  // namespace clo::util
