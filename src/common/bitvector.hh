/**
 * @file
 * A compact dynamic bit vector.
 *
 * PRIL's write-maps are bit vectors with one bit per memory page
 * (Section 4.2 of the paper); this container is sized for millions of
 * bits and supports the operations the tracker needs: set/test/clear,
 * popcount, clear-all, and iteration over set bits.
 */

#ifndef MEMCON_COMMON_BITVECTOR_HH
#define MEMCON_COMMON_BITVECTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simd.hh"

namespace memcon
{

class BitVector
{
  public:
    BitVector() = default;

    /** Construct with all bits clear. */
    explicit BitVector(std::size_t num_bits);

    /** Resize, clearing every bit. */
    void resizeAndClear(std::size_t num_bits);

    /** @return the number of addressable bits. */
    std::size_t size() const { return numBits; }

    /** Set the bit at idx. */
    void set(std::size_t idx);

    /** Clear the bit at idx. */
    void clear(std::size_t idx);

    /** @return the bit at idx. */
    bool test(std::size_t idx) const;

    /**
     * Set the bit and report whether it was already set, the
     * single-probe "first write this quantum?" check PRIL performs.
     */
    bool testAndSet(std::size_t idx);

    /** Clear all bits (words are zeroed; capacity retained). */
    void clearAll();

    /** @return the number of set bits. */
    std::size_t count() const;

    /**
     * Invoke fn(bit_index) for every set bit, ascending, through the
     * dispatched kernel. fn may clear the current or an earlier bit
     * (each word is snapshotted before its bits dispatch); setting
     * bits mid-visit is undefined.
     */
    template <typename Fn>
    void
    visitSetBits(Fn &&fn) const
    {
        simd::visitSetBits(words.data(), words.size(),
                           std::forward<Fn>(fn));
    }

    /** dst &= ~src over the word arrays. Sizes must match. */
    void andNotWith(const BitVector &src);

    /** Raw word span, for the simd kernels. */
    const std::uint64_t *wordData() const { return words.data(); }
    std::size_t wordCount() const { return words.size(); }

    /** Storage footprint in bytes (for overhead accounting). */
    std::size_t storageBytes() const { return words.size() * sizeof(std::uint64_t); }

  private:
    void checkIndex(std::size_t idx) const;

    std::size_t numBits = 0;
    std::vector<std::uint64_t> words;
};

} // namespace memcon

#endif // MEMCON_COMMON_BITVECTOR_HH
