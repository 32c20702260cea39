/**
 * @file
 * Test oracle: SECDED ECC over 64-bit words - the (72,64)
 * Hamming-plus-parity code used throughout server DRAM.
 *
 * The paper's Copy&Compare mode keeps only the check bytes
 * (encodeCheck) of the in-test row's words and compares them after
 * the idle period (Section 3.3); any 1- or 2-bit change to a word
 * changes its check byte. The simulator takes test verdicts from its
 * failure oracle instead, and failure::FaultInjector classifies a
 * read by its per-word flip count, so no shipped path encodes or
 * decodes. This codec is kept to check that classification
 * differentially against a real decoder.
 *
 * The check-bit matrix is the classic Hsiao-style construction:
 * seven Hamming syndromes over bit positions plus an overall parity
 * bit, giving single-error correction and double-error detection.
 */

#ifndef MEMCON_TESTS_ORACLES_SECDED_HH
#define MEMCON_TESTS_ORACLES_SECDED_HH

#include <cstdint>

#include "dram/ecc.hh"

namespace memcon::oracles
{

/** A 64-bit word plus its 8 SECDED check bits. */
struct EccWord
{
    std::uint64_t data = 0;
    std::uint8_t check = 0;

    bool operator==(const EccWord &) const = default;
};

/** Result of a decode: the repaired data and what happened. */
struct EccDecode
{
    std::uint64_t data = 0;
    dram::EccStatus status = dram::EccStatus::Ok;
};

class Secded64
{
  public:
    /** Compute the 8 check bits for a data word. */
    static std::uint8_t encodeCheck(std::uint64_t data);

    /** Bundle a word with its check bits. */
    static EccWord encode(std::uint64_t data);

    /**
     * Decode a (possibly corrupted) word: repair single-bit errors
     * in data or check bits, flag double errors.
     */
    static EccDecode decode(const EccWord &word);

  private:
    static std::uint64_t syndromeMask(unsigned check_bit);
};

} // namespace memcon::oracles

#endif // MEMCON_TESTS_ORACLES_SECDED_HH
