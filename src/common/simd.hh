/**
 * @file
 * Runtime-dispatched bit-parallel kernels over 64-bit word spans.
 *
 * The bitmap hot paths reduce to three primitives on flat
 * std::uint64_t buffers: popcount (set-bit counts), bulk andnot
 * (PRIL's erased-row masks), and visit-set-bits (PRIL candidate
 * extraction). Each primitive exists as a scalar-u64 kernel and, on
 * x86-64, an AVX2 kernel; a function-pointer table resolved once per
 * process picks the widest set the CPU supports.
 *
 * Determinism contract: every kernel computes an exact integer
 * function of its inputs, so the scalar and AVX2 variants are
 * bit-identical by construction - vectorization only changes how
 * fast the same bits are produced. The property suite cross-checks
 * every kernel of every compiled set against a naive reference, and
 * CI re-runs the engine micro-bench with MEMCON_FORCE_SCALAR=1 to
 * prove the digest never depends on which set ran.
 *
 * MEMCON_FORCE_SCALAR: set to anything but "0" or "" to pin the
 * scalar set regardless of CPU features (surfaced in bench banners
 * via activeKernelSetName()).
 */

#ifndef MEMCON_COMMON_SIMD_HH
#define MEMCON_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <utility>

namespace memcon::simd
{

/**
 * One ISA level's implementations. All pointers are non-null; n is
 * a word count and may be zero (every kernel accepts empty spans).
 */
struct KernelSet
{
    const char *name;

    /** popcount over the span. */
    std::uint64_t (*popcountWords)(const std::uint64_t *a, std::size_t n);

    /** dst[i] &= ~src[i]. */
    void (*andNotWords)(std::uint64_t *dst, const std::uint64_t *src,
                        std::size_t n);

    /**
     * Invoke cb(bit_index, ctx) for every set bit, ascending. The
     * callback may clear the current or an earlier bit in the span
     * (each word is read exactly once, before its bits dispatch);
     * setting bits mid-visit is undefined.
     */
    void (*visitSetBits)(const std::uint64_t *words, std::size_t n,
                         void (*cb)(std::size_t, void *), void *ctx);
};

/**
 * The set the process dispatches to: the widest one the CPU
 * supports, unless MEMCON_FORCE_SCALAR pins the scalar set. Resolved
 * once on first use and never changes afterwards.
 */
const KernelSet &activeKernels();

/** True when MEMCON_FORCE_SCALAR overrode the cpuid dispatch. */
bool scalarForced();

/**
 * Every kernel set compiled into this binary (scalar first), for the
 * property suite to cross-check each against the naive reference.
 */
const KernelSet *const *compiledKernelSets(std::size_t *count);

/** Dispatch-result name for bench banners, e.g. "avx2". */
inline const char *
activeKernelSetName()
{
    return activeKernels().name;
}

// --- thin dispatching wrappers -------------------------------------

inline std::uint64_t
popcountWords(const std::uint64_t *a, std::size_t n)
{
    return activeKernels().popcountWords(a, n);
}

inline void
andNotWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    activeKernels().andNotWords(dst, src, n);
}

/** Dispatched visit-set-bits over any callable (type-erased once). */
template <typename Fn>
inline void
visitSetBits(const std::uint64_t *words, std::size_t n, Fn &&fn)
{
    using Plain = std::remove_reference_t<Fn>;
    activeKernels().visitSetBits(
        words, n,
        [](std::size_t bit, void *ctx) {
            (*static_cast<Plain *>(ctx))(bit);
        },
        const_cast<void *>(static_cast<const void *>(&fn)));
}

} // namespace memcon::simd

#endif // MEMCON_COMMON_SIMD_HH
