/**
 * @file
 * Cycle-level DDR3 channel timing model.
 *
 * One Channel owns the bank and rank state machines for every device
 * behind it and answers two questions for the memory controller:
 * "when is this command next legal?" and "apply this command now".
 * The constraint set covers the JEDEC DDR3 core timings: tRCD, tRP,
 * tRAS, tRC, tCCD, tRRD, tFAW, read/write turnaround, tWR, tRTP,
 * tWTR, tRFC and the shared data bus. Issuing an illegal command is a
 * library bug and panics, which is what the timing property tests
 * lean on.
 */

#ifndef MEMCON_DRAM_CHANNEL_HH
#define MEMCON_DRAM_CHANNEL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/strong_id.hh"
#include "common/units.hh"
#include "dram/command.hh"
#include "dram/organization.hh"
#include "dram/timing.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::dram
{

/** Per-bank state: open row plus the earliest tick for each action. */
struct BankState
{
    bool rowOpen = false;
    RowId openRow{};

    Tick nextAct{};
    Tick nextPre{};
    Tick nextRead{};
    Tick nextWrite{};

    /** Cache blocks served from the open row since the last ACT. */
    std::uint64_t rowHitStreak = 0;
};

class Channel
{
  public:
    Channel(const Geometry &geometry, const TimingParams &timing);

    /** Earliest tick at which the command would satisfy all timings. */
    Tick earliestIssueTick(Command cmd, unsigned rank, unsigned bank,
                           RowId row) const;

    /** @return true if the command is legal at the given tick. */
    bool canIssue(Command cmd, unsigned rank, unsigned bank,
                  RowId row, Tick now) const;

    /**
     * Apply a command. Panics if it violates a timing or state
     * constraint (these indicate controller bugs, not user error).
     *
     * @return for column commands, the tick at which the data burst
     * completes; for other commands, the tick the device becomes
     * usable again (e.g. now + tRFC for Ref).
     */
    Tick issue(Command cmd, unsigned rank, unsigned bank,
               RowId row, Tick now);

    /** @return true if the bank has a row open. */
    bool isRowOpen(unsigned rank, unsigned bank) const;

    /**
     * @return true if `row` is the bank's open row. Unchecked: for
     * coordinates the geometry decomposed (the scheduler's row-hit
     * test runs once per queued request per decision).
     */
    bool
    isRowHit(unsigned rank, unsigned bank_idx, RowId row) const
    {
        const BankState &b = bankState[std::size_t{rank} * geom.banks + bank_idx];
        return b.rowOpen && b.openRow == row;
    }

    /** @return true if every bank in the rank is precharged. */
    bool allBanksPrecharged(unsigned rank) const;

    const Geometry &geometry() const { return geom; }
    const TimingParams &timing() const { return params; }

    /**
     * Save the bank, rank and bus timing state and the command
     * counters as state record lines (common/state_io.hh); loadState
     * reads them back into a channel of the same geometry.
     */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

    /** Command counts as "cmd.<NAME>" stats, issued commands only. */
    StatGroup stats() const;

  private:
    struct RankState
    {
        Tick nextAct{};            //!< tRRD horizon
        Tick nextRefOk{};          //!< end of tRFC
        std::deque<Tick> actTimes; //!< last ACTs for the tFAW window
    };

    const BankState &bank(unsigned rank, unsigned bank_idx) const;
    BankState &bank(unsigned rank, unsigned bank_idx);
    void checkIds(unsigned rank, unsigned bank_idx) const;

    Geometry geom;
    TimingParams params;

    std::vector<RankState> rankState;
    std::vector<BankState> bankState; // [rank * banks + bank]

    // Channel-global data-bus and command-turnaround horizons.
    Tick nextReadGlobal{};
    Tick nextWriteGlobal{};

    /** Commands issued, indexed by Command; stats() names them. */
    std::array<std::uint64_t, kNumCommands> commandCounts{};

    /** stats()'s name for each command's counter, indexed by Command. */
    static const char *const kCommandNames[kNumCommands];
};

} // namespace memcon::dram

#endif // MEMCON_DRAM_CHANNEL_HH
