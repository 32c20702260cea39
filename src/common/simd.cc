#include "common/simd.hh"

#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define MEMCON_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define MEMCON_SIMD_HAVE_AVX2 0
#endif

namespace memcon::simd
{

// --------------------------------------------------------------------
// Scalar-u64 kernels: the reference semantics every other set must
// reproduce bit-for-bit.
// --------------------------------------------------------------------

namespace
{

std::uint64_t
scalarPopcountWords(const std::uint64_t *a, std::size_t n)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::uint64_t>(std::popcount(a[i]));
    return total;
}

void
scalarAndNotWords(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] &= ~src[i];
}

void
scalarVisitSetBits(const std::uint64_t *words, std::size_t n,
                   void (*cb)(std::size_t, void *), void *ctx)
{
    for (std::size_t wi = 0; wi < n; ++wi) {
        std::uint64_t w = words[wi]; // snapshot: callbacks may clear
        while (w) {
            int bit = std::countr_zero(w);
            cb(wi * 64 + static_cast<std::size_t>(bit), ctx);
            w &= w - 1;
        }
    }
}

const KernelSet kScalar = {
    "scalar-u64",
    scalarPopcountWords,
    scalarAndNotWords,
    scalarVisitSetBits,
};

// --------------------------------------------------------------------
// AVX2 kernels (x86-64 only, per-function target attribute so the
// rest of the binary stays baseline). Integer lane ops throughout:
// the outputs are exact, so equality with the scalar set is by
// construction, and the property suite re-proves it anyway.
// --------------------------------------------------------------------

#if MEMCON_SIMD_HAVE_AVX2

__attribute__((target("avx2"))) std::uint64_t
avx2PopcountWords(const std::uint64_t *a, std::size_t n)
{
    std::uint64_t total = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        alignas(32) std::uint64_t lane[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lane), v);
        total += static_cast<std::uint64_t>(std::popcount(lane[0])) +
                 static_cast<std::uint64_t>(std::popcount(lane[1])) +
                 static_cast<std::uint64_t>(std::popcount(lane[2])) +
                 static_cast<std::uint64_t>(std::popcount(lane[3]));
    }
    for (; i < n; ++i)
        total += static_cast<std::uint64_t>(std::popcount(a[i]));
    return total;
}

__attribute__((target("avx2"))) void
avx2AndNotWords(std::uint64_t *dst, const std::uint64_t *src,
                std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i vd = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        __m256i vs = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        // andnot(a, b) computes ~a & b.
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_andnot_si256(vs, vd));
    }
    for (; i < n; ++i)
        dst[i] &= ~src[i];
}

/**
 * The AVX2 win here is skipping all-zero regions four words at a
 * time - PRIL write-maps over million-page populations are sparse,
 * so most of the scan is the testz fast path.
 */
__attribute__((target("avx2"))) void
avx2VisitSetBits(const std::uint64_t *words, std::size_t n,
                 void (*cb)(std::size_t, void *), void *ctx)
{
    std::size_t wi = 0;
    for (; wi + 4 <= n; wi += 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + wi));
        if (_mm256_testz_si256(v, v))
            continue;
        alignas(32) std::uint64_t lane[4]; // snapshot before callbacks
        _mm256_store_si256(reinterpret_cast<__m256i *>(lane), v);
        for (std::size_t k = 0; k < 4; ++k) {
            std::uint64_t w = lane[k];
            while (w) {
                int bit = std::countr_zero(w);
                cb((wi + k) * 64 + static_cast<std::size_t>(bit), ctx);
                w &= w - 1;
            }
        }
    }
    for (; wi < n; ++wi) {
        std::uint64_t w = words[wi];
        while (w) {
            int bit = std::countr_zero(w);
            cb(wi * 64 + static_cast<std::size_t>(bit), ctx);
            w &= w - 1;
        }
    }
}

const KernelSet kAvx2 = {
    "avx2",
    avx2PopcountWords,
    avx2AndNotWords,
    avx2VisitSetBits,
};

#endif // MEMCON_SIMD_HAVE_AVX2

const KernelSet *const kCompiled[] = {
    &kScalar,
#if MEMCON_SIMD_HAVE_AVX2
    &kAvx2,
#endif
};

const KernelSet &
resolveKernels()
{
    if (scalarForced())
        return kScalar;
#if MEMCON_SIMD_HAVE_AVX2
    if (__builtin_cpu_supports("avx2"))
        return kAvx2;
#endif
    return kScalar;
}

} // namespace

bool
scalarForced()
{
    static const bool forced = [] {
        const char *env = std::getenv("MEMCON_FORCE_SCALAR");
        return env != nullptr && env[0] != '\0' &&
               std::strcmp(env, "0") != 0;
    }();
    return forced;
}

const KernelSet &
activeKernels()
{
    // Resolved once; the table pointer never changes afterwards, so
    // every call site sees one consistent ISA level for the whole
    // process lifetime.
    static const KernelSet &active = resolveKernels();
    return active;
}

const KernelSet *const *
compiledKernelSets(std::size_t *count)
{
    *count = sizeof(kCompiled) / sizeof(kCompiled[0]);
    return kCompiled;
}

} // namespace memcon::simd
