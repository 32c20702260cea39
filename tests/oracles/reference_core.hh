/**
 * @file
 * Test oracle: the seed per-slot instruction window of sim::SimpleCore
 * (Table 2's 4-wide, 128-entry Ramulator-style core), kept only as a
 * cross-check for the production core's run-length window.
 *
 * One entry per instruction: a bubble or a posted write is a ready
 * slot, a load an unready slot until its data returns; retire and
 * issue step one slot at a time, and a completion scans every slot.
 * Same stream, same enqueue calls in the same order and the same
 * retired/cycle counts as the production core after every tick (the
 * CoreEquiv suite locksteps the two). Deliberately shares no code
 * with src/sim/core.cc, so a bug there cannot hide in both.
 */

#ifndef MEMCON_TESTS_ORACLES_REFERENCE_CORE_HH
#define MEMCON_TESTS_ORACLES_REFERENCE_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hh"
#include "sim/controller.hh"
#include "trace/cpu_gen.hh"

namespace memcon::oracles
{

class ReferenceCore
{
  public:
    ReferenceCore(int core_id, trace::CpuAccessStream stream,
                  sim::MemoryController &controller,
                  std::uint64_t base_block, std::uint64_t total_blocks,
                  unsigned issue_width = 4, unsigned window_size = 128);

    /** Advance one CPU cycle at the given DRAM-domain tick. */
    void tick(Tick now);

    InstCount retiredInsts() const { return retired; }
    std::uint64_t cpuCycles() const { return cycles; }

  private:
    struct WindowEntry
    {
        bool isLoad;
        bool ready;
        std::uint64_t addr;
    };

    void refillPending();

    int coreId;
    trace::CpuAccessStream stream;
    sim::MemoryController &mc;
    std::uint64_t baseBlock;
    std::uint64_t totalBlocks;
    unsigned issueWidth;
    unsigned windowSize;

    std::vector<WindowEntry> window; //!< circular, windowSize entries
    std::size_t windowHead = 0;      //!< oldest entry
    std::size_t windowCount = 0;

    std::uint64_t pendingBubbles = 0;
    bool pendingAccessValid = false;
    trace::MemAccess pendingAccess{};

    InstCount retired = 0;
    std::uint64_t cycles = 0;

    /** Load addresses the controller completed since the last tick. */
    std::shared_ptr<std::vector<std::uint64_t>> completedAddrs;
};

} // namespace memcon::oracles

#endif // MEMCON_TESTS_ORACLES_REFERENCE_CORE_HH
