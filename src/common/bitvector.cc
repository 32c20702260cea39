#include "common/bitvector.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace memcon
{

BitVector::BitVector(std::size_t num_bits)
{
    resizeAndClear(num_bits);
}

void
BitVector::resizeAndClear(std::size_t num_bits)
{
    numBits = num_bits;
    words.assign((num_bits + 63) / 64, 0);
}

void
BitVector::checkIndex(std::size_t idx) const
{
    panic_if(idx >= numBits, "bit index %zu out of range (size %zu)",
             idx, numBits);
}

void
BitVector::set(std::size_t idx)
{
    checkIndex(idx);
    words[idx >> 6] |= (std::uint64_t{1} << (idx & 63));
}

void
BitVector::clear(std::size_t idx)
{
    checkIndex(idx);
    words[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

bool
BitVector::test(std::size_t idx) const
{
    checkIndex(idx);
    return (words[idx >> 6] >> (idx & 63)) & 1;
}

bool
BitVector::testAndSet(std::size_t idx)
{
    checkIndex(idx);
    std::uint64_t mask = std::uint64_t{1} << (idx & 63);
    std::uint64_t &word = words[idx >> 6];
    bool was_set = word & mask;
    word |= mask;
    return was_set;
}

void
BitVector::clearAll()
{
    std::fill(words.begin(), words.end(), 0);
}

std::size_t
BitVector::count() const
{
    return static_cast<std::size_t>(
        simd::popcountWords(words.data(), words.size()));
}

void
BitVector::andNotWith(const BitVector &src)
{
    panic_if(numBits != src.numBits,
             "bitvector size mismatch (%zu vs %zu)", numBits,
             src.numBits);
    simd::andNotWords(words.data(), src.words.data(), words.size());
}

} // namespace memcon
