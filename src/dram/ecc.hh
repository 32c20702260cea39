/**
 * @file
 * SECDED ECC over 64-bit words - the (72,64) Hamming-plus-parity code
 * used throughout server DRAM.
 *
 * MEMCON relies on it in two places. In Copy&Compare mode the
 * controller keeps only the check bytes (encodeCheck) of the in-test
 * row's words, not the data, and compares them after the idle period
 * (Section 3.3); any 1- or 2-bit change to a word changes its check
 * byte, which is what makes that verdict sound. (The simulator takes
 * test verdicts from its failure oracle - core/test_engine.hh.) And
 * ECC is one of the mitigation mechanisms the paper positions MEMCON
 * against/alongside: a single data-dependent bit flip per word is
 * correctable, so rows whose content produces at most one failing
 * cell per 64-bit word could be tolerated without HI-REF.
 *
 * The check-bit matrix is the classic Hsiao-style construction:
 * seven Hamming syndromes over bit positions plus an overall parity
 * bit, giving single-error correction and double-error detection.
 */

#ifndef MEMCON_DRAM_ECC_HH
#define MEMCON_DRAM_ECC_HH

#include <cstdint>

namespace memcon::dram
{

/** Outcome of decoding one protected word. */
enum class EccStatus
{
    Ok,             //!< syndrome clean
    CorrectedData,  //!< single flipped data bit, repaired
    CorrectedCheck, //!< single flipped check bit, data was fine
    Uncorrectable,  //!< double (or worse) error detected
};

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
    EccStatus status = EccStatus::Ok;
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

} // namespace memcon::dram

#endif // MEMCON_DRAM_ECC_HH
