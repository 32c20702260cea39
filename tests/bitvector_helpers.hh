/**
 * @file
 * Test helper shared by the BitVector unit and property suites: the
 * set bits as a vector, read through the shipped visitSetBits
 * kernel (the only way production code walks a BitVector).
 */

#ifndef MEMCON_TESTS_BITVECTOR_HELPERS_HH
#define MEMCON_TESTS_BITVECTOR_HELPERS_HH

#include <cstddef>
#include <vector>

#include "common/bitvector.hh"

namespace memcon
{

/** Indices of the set bits, ascending. */
inline std::vector<std::size_t>
setBits(const BitVector &bv)
{
    std::vector<std::size_t> out;
    bv.visitSetBits([&out](std::size_t bit) { out.push_back(bit); });
    return out;
}

} // namespace memcon

#endif // MEMCON_TESTS_BITVECTOR_HELPERS_HH
