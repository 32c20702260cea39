/**
 * @file
 * DDR3 timing parameters.
 *
 * Two views of timing coexist here, matching the paper:
 *
 * 1. TimingParams - cycle-resolution JEDEC DDR3 parameters used by the
 *    bank/rank/channel state machines of the cycle-level simulator
 *    (Table 2: DDR3-1600, 800 MHz clock, 1.25 ns cycle time; baseline
 *    tREFI/tRFC = 1.95 us / 350 ns, with tRFC scaled up for denser
 *    chips).
 *
 * 2. CostTimings - the flat nanosecond figures the paper's appendix
 *    uses for its cost-benefit arithmetic. The appendix numbers
 *    (refresh 39 ns = tRAS + tRP; Read&Compare 1068 ns =
 *    2*(tRCD + 128*tCCD + tRP); Copy&Compare 1602 ns = 3*(...)) are
 *    reproduced exactly by tRCD = tRP = 11 ns, tRAS = 28 ns,
 *    tCCD = 4 ns, which is what paperDdr3_1600() returns.
 */

#ifndef MEMCON_DRAM_TIMING_HH
#define MEMCON_DRAM_TIMING_HH

#include <cstdint>
#include <string>

#include "common/units.hh"

namespace memcon::dram
{

/** DRAM chip density; tRFC grows with density (Table 2). */
enum class Density
{
    Gb8,
    Gb16,
    Gb32,
    Gb64,
};

/** @return a printable name such as "8Gb". */
std::string toString(Density density);

/**
 * Cycle-domain DDR3 timing parameters. All fields are in DRAM clock
 * cycles except tCk (the cycle time in ticks); helpers convert to
 * ticks.
 */
struct TimingParams
{
    Tick tCk;        //!< clock period in ticks (ps)
    unsigned tCL;    //!< CAS latency
    unsigned tCWL;   //!< CAS write latency
    unsigned tRCD;   //!< ACT -> column command
    unsigned tRP;    //!< PRE -> ACT
    unsigned tRAS;   //!< ACT -> PRE
    unsigned tRC;    //!< ACT -> ACT, same bank
    unsigned tCCD;   //!< column command -> column command
    unsigned tRRD;   //!< ACT -> ACT, different banks, same rank
    unsigned tFAW;   //!< rolling window for four ACTs
    unsigned tWTR;   //!< end of write data -> read command
    unsigned tWR;    //!< end of write data -> PRE
    unsigned tRTP;   //!< read -> PRE
    unsigned tBL;    //!< burst length in cycles (BL8 on a DDR bus = 4)
    unsigned tRFC;   //!< REF -> any command, refreshed rank
    unsigned tREFI;  //!< average interval between REF commands

    /** Convert a cycle count to ticks. */
    Tick cyc(unsigned cycles) const { return tCk * cycles; }

    /** Read-to-write turnaround at the command level. */
    unsigned readToWrite() const { return tCL + tBL + 2 - tCWL; }

    /** Write command to read command, same rank. */
    unsigned writeToRead() const { return tCWL + tBL + tWTR; }

    /** Write command to precharge, same bank. */
    unsigned writeToPre() const { return tCWL + tBL + tWR; }

    /**
     * DDR3-1600 (11-11-11) with the Table 2 refresh figures. The
     * baseline tREFI of 1.95 us corresponds to refreshing the whole
     * device every 16 ms (8192 REF commands); pass a different
     * refresh_interval to rescale (e.g. TimeMs{64.0} -> 7.8 us).
     *
     * @param density          chip density, selects tRFC
     * @param refresh_interval full-device retention period the REF
     *                         stream must cover
     */
    static TimingParams ddr3_1600(Density density,
                                  TimeMs refresh_interval =
                                      TimeMs{16.0});
};

/** @return the Table 2 tRFC for a chip density, in nanoseconds. */
double densityTrfcNs(Density density);

/**
 * Nanosecond-domain figures for the analytic cost model (paper
 * appendix). columnsPerRow is the number of cache-block reads needed
 * to stream one row through the controller (128 for an 8 KB row of
 * 64 B blocks).
 */
struct CostTimings
{
    double tRcdNs;
    double tRpNs;
    double tRasNs;
    double tCcdNs;
    unsigned columnsPerRow;

    /** Latency to activate, stream every column once, and precharge. */
    double rowStreamNs() const
    {
        return tRcdNs + columnsPerRow * tCcdNs + tRpNs;
    }

    /** Latency of one per-row refresh: tRAS + tRP (appendix). */
    double refreshOpNs() const { return tRasNs + tRpNs; }

    /** The parameterisation that reproduces the appendix arithmetic. */
    static CostTimings paperDdr3_1600();
};

} // namespace memcon::dram

#endif // MEMCON_DRAM_TIMING_HH
