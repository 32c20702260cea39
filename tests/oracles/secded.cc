#include "oracles/secded.hh"

#include <bit>

namespace memcon::oracles
{

using dram::EccStatus;

namespace
{

/**
 * Position map: the 64 data bits occupy the non-power-of-two
 * positions of a 72-bit Hamming codeword (positions 1..72, with
 * 1,2,4,8,16,32,64 reserved for check bits and position 0 unused in
 * classic numbering; we fold the overall parity in separately).
 *
 * dataPosition(i) is the codeword position of data bit i.
 */
unsigned
dataPosition(unsigned data_bit)
{
    // Skip power-of-two positions.
    unsigned pos = data_bit + 1; // at least position 1
    // Walk forward until we have skipped all powers of two <= pos.
    for (unsigned p = 1; p <= 128; p <<= 1) {
        if (pos >= p)
            ++pos;
    }
    return pos;
}

} // namespace

std::uint64_t
Secded64::syndromeMask(unsigned check_bit)
{
    // Mask of data bits whose codeword position has bit `check_bit`
    // set - computed once per check bit.
    std::uint64_t mask = 0;
    for (unsigned i = 0; i < 64; ++i) {
        if (dataPosition(i) & (1u << check_bit))
            mask |= std::uint64_t{1} << i;
    }
    return mask;
}

std::uint8_t
Secded64::encodeCheck(std::uint64_t data)
{
    static const std::uint64_t masks[7] = {
        syndromeMask(0), syndromeMask(1), syndromeMask(2),
        syndromeMask(3), syndromeMask(4), syndromeMask(5),
        syndromeMask(6),
    };

    std::uint8_t check = 0;
    for (unsigned c = 0; c < 7; ++c) {
        if (std::popcount(data & masks[c]) & 1)
            check |= static_cast<std::uint8_t>(1u << c);
    }
    // Overall parity over data + the 7 Hamming bits (DED bit).
    unsigned parity = std::popcount(data) + std::popcount(
                          static_cast<unsigned>(check));
    if (parity & 1)
        check |= 0x80;
    return check;
}

EccWord
Secded64::encode(std::uint64_t data)
{
    return {data, encodeCheck(data)};
}

EccDecode
Secded64::decode(const EccWord &word)
{
    std::uint8_t expected = encodeCheck(word.data);
    std::uint8_t syndrome = (expected ^ word.check) & 0x7f;

    // Parity over the *stored* codeword (data + all 8 check bits):
    // zero for a clean word, flips with every single-bit error
    // anywhere, stays even for double errors - the DED property.
    bool odd_flips = (std::popcount(word.data) +
                      std::popcount(static_cast<unsigned>(word.check))) &
                     1;

    EccDecode out;
    out.data = word.data;
    if (!odd_flips) {
        out.status =
            syndrome == 0 ? EccStatus::Ok : EccStatus::Uncorrectable;
        return out;
    }

    if (syndrome == 0) {
        // Only the overall parity bit flipped.
        out.status = EccStatus::CorrectedCheck;
        return out;
    }
    if (std::popcount(static_cast<unsigned>(syndrome)) == 1) {
        // Power-of-two syndrome: a flipped Hamming check bit (data
        // positions skip the powers of two).
        out.status = EccStatus::CorrectedCheck;
        return out;
    }
    for (unsigned i = 0; i < 64; ++i) {
        if (dataPosition(i) == syndrome) {
            out.data = word.data ^ (std::uint64_t{1} << i);
            out.status = EccStatus::CorrectedData;
            return out;
        }
    }
    // Syndrome points outside the codeword: corrupted beyond repair.
    out.status = EccStatus::Uncorrectable;
    return out;
}

} // namespace memcon::oracles
