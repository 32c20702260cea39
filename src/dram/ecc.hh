/**
 * @file
 * The verdict of a SECDED-protected read. Only this enum ships:
 * failure::FaultInjector classifies a read by its per-word flip count
 * (one flip corrected, two or more uncorrectable), and the
 * controller and the resilience layer act on the verdict. The
 * (72,64) codec itself is a test oracle (tests/oracles/secded.hh).
 */

#ifndef MEMCON_DRAM_ECC_HH
#define MEMCON_DRAM_ECC_HH

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

} // namespace memcon::dram

#endif // MEMCON_DRAM_ECC_HH
