// Allocation hints for the big lazily-touched arc buffers.
//
// ResidualGraph and ActiveArcs reserve address-space-only arc buffers
// (O(total arcs)) that are touched page by page as segments materialize.
// ResidualGraph appends its segments from the start of its buffer, in
// materialization order, so its resident part is the prefix it has
// filled; ActiveArcs places each vertex's lists at the graph's offsets, so
// its touched pages scatter over the whole range. With 4K pages a
// 2^20-vertex run takes tens of thousands of first-touch faults and keeps
// the TLB churning; hinting transparent huge pages backs the same range
// with 2MB pages — 512x fewer faults and far fewer TLB misses — while
// keeping the lazy-touch property (nothing is populated up front).
#ifndef MPCG_UTIL_MEMORY_H
#define MPCG_UTIL_MEMORY_H

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace mpcg {

/// Best-effort THP hint for [p, p + bytes). No-op off Linux, for small
/// ranges (under 4 MiB the fault savings are noise), or when the kernel
/// rejects the advice — the buffer works identically either way.
inline void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::size_t kHuge = std::size_t{1} << 21;
  if (bytes < (std::size_t{4} << 20)) return;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t aligned = (addr + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t end = addr + bytes;
  if (end <= aligned + kHuge) return;
  (void)madvise(reinterpret_cast<void*>(aligned),
                static_cast<std::size_t>(end - aligned), MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace mpcg

#endif  // MPCG_UTIL_MEMORY_H
