#include "failure/scrambler.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon::failure
{

KeyedPermutation::KeyedPermutation(unsigned bits, std::uint64_t key_value)
    : numBits(bits), halfBits((bits + 1) / 2), key(key_value)
{
    panic_if(bits == 0 || bits > 62, "permutation width %u unsupported",
             bits);
}

std::uint64_t
KeyedPermutation::roundFn(std::uint64_t half, unsigned round) const
{
    // SplitMix finalizer over (half, round, key); truncated to the
    // low half of the index width.
    std::uint64_t mixed =
        hashMix64(half * 0x9e3779b97f4a7c15ULL + round + key * 0xda942042e4dd58b5ULL);
    return mixed & ((std::uint64_t{1} << (numBits - numBits / 2)) - 1);
}

std::uint64_t
KeyedPermutation::forward(std::uint64_t logical) const
{
    panic_if(logical >= size(), "index out of range");
    // Unbalanced Feistel over lo (floor(n/2) bits) and hi (ceil) parts.
    unsigned lo_bits = numBits / 2;
    unsigned hi_bits = numBits - lo_bits;
    std::uint64_t lo_mask = (std::uint64_t{1} << lo_bits) - 1;
    std::uint64_t hi_mask = (std::uint64_t{1} << hi_bits) - 1;

    std::uint64_t lo = logical & lo_mask;
    std::uint64_t hi = (logical >> lo_bits) & hi_mask;

    for (unsigned r = 0; r < numRounds; ++r) {
        // hi gets mixed by f(lo); swap roles each round with masks
        // kept per side so widths stay fixed.
        std::uint64_t new_hi = (hi ^ roundFn(lo, r)) & hi_mask;
        std::uint64_t new_lo = (lo ^ (roundFn(new_hi, r + 100) & lo_mask)) &
                               lo_mask;
        hi = new_hi;
        lo = new_lo;
    }
    return (hi << lo_bits) | lo;
}

std::uint64_t
KeyedPermutation::inverse(std::uint64_t physical) const
{
    panic_if(physical >= size(), "index out of range");
    unsigned lo_bits = numBits / 2;
    unsigned hi_bits = numBits - lo_bits;
    std::uint64_t lo_mask = (std::uint64_t{1} << lo_bits) - 1;
    std::uint64_t hi_mask = (std::uint64_t{1} << hi_bits) - 1;

    std::uint64_t lo = physical & lo_mask;
    std::uint64_t hi = (physical >> lo_bits) & hi_mask;

    for (unsigned i = numRounds; i-- > 0;) {
        std::uint64_t prev_lo = (lo ^ (roundFn(hi, i + 100) & lo_mask)) &
                                lo_mask;
        std::uint64_t prev_hi = (hi ^ roundFn(prev_lo, i)) & hi_mask;
        lo = prev_lo;
        hi = prev_hi;
    }
    return (hi << lo_bits) | lo;
}

AddressScrambler::AddressScrambler(unsigned row_bits, unsigned column_bits,
                                   std::uint64_t chip_key)
    : chipKey(chip_key),
      rowPerm(row_bits, chip_key == 0 ? 0 : hashMix64(chip_key ^ 0x1)),
      colPerm(column_bits, chip_key == 0 ? 0 : hashMix64(chip_key ^ 0x2))
{
}

std::uint64_t
AddressScrambler::physicalRow(std::uint64_t logical_row) const
{
    return enabled() ? rowPerm.forward(logical_row) : logical_row;
}

std::uint64_t
AddressScrambler::logicalRow(std::uint64_t physical_row) const
{
    return enabled() ? rowPerm.inverse(physical_row) : physical_row;
}

std::uint64_t
AddressScrambler::logicalColumn(std::uint64_t physical_col) const
{
    return enabled() ? colPerm.inverse(physical_col) : physical_col;
}

} // namespace memcon::failure
