/**
 * @file
 * A Ramulator-style simple out-of-order core model (Table 2: 4 GHz,
 * 4-wide, 128-entry instruction window).
 *
 * The core consumes a CPU access stream (bubble of non-memory
 * instructions + one memory access). Non-memory instructions and
 * writes retire immediately; loads occupy a window slot until their
 * data returns from the memory controller. Up to `issueWidth`
 * instructions enter and leave the window per CPU cycle, so IPC is
 * bounded by the issue width and throttled by memory latency exactly
 * as in the simulator the paper uses.
 *
 * The window is kept run-length encoded (DESIGN §11): a ring of
 * segments, one per load and one per run of ready slots, so a tick
 * issues and retires a whole run of bubbles in one step. It retires
 * and issues exactly what a window of one entry per instruction would.
 */

#ifndef MEMCON_SIM_CORE_HH
#define MEMCON_SIM_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hh"
#include "sim/controller.hh"
#include "trace/cpu_gen.hh"

namespace memcon::sim
{

class SimpleCore
{
  public:
    /**
     * @param core_id       identifies the core (request tagging)
     * @param stream        its instruction/access stream
     * @param controller    shared memory controller
     * @param base_block    footprint placement offset in DRAM blocks
     * @param total_blocks  module capacity in blocks (for wrapping)
     */
    SimpleCore(int core_id, trace::CpuAccessStream stream,
               MemoryController &controller, std::uint64_t base_block,
               std::uint64_t total_blocks, unsigned issue_width = 4,
               unsigned window_size = 128);

    /** Advance one CPU cycle at the given DRAM-domain tick. */
    void tick(Tick now);

    InstCount retiredInsts() const { return retired; }
    std::uint64_t cpuCycles() const { return cycles; }

    /** Retired instructions per CPU cycle so far. */
    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(retired) /
                                 static_cast<double>(cycles);
    }

  private:
    /** A load's slot, or a run of `slots` ready slots (bubbles and
     * posted writes). */
    struct Segment
    {
        std::uint64_t addr = 0;
        std::uint32_t slots = 0;
        bool isLoad = false;
        bool ready = true;
    };

    void refillPending();
    std::uint64_t blockToAddr(std::uint64_t block_index) const;

    /** A ring position below 2 * windowSize, folded into the ring. */
    std::size_t
    wrap(std::size_t pos) const
    {
        return pos >= windowSize ? pos - windowSize : pos;
    }

    /** Append `n` ready slots, merging into a tail run. */
    void appendReady(std::uint32_t n);
    void appendLoad(std::uint64_t addr);

    int coreId;
    trace::CpuAccessStream stream;
    MemoryController &mc;
    std::uint64_t baseBlock;
    std::uint64_t totalBlocks;
    unsigned issueWidth;
    unsigned windowSize;

    // In-order retire window: a ring of segments. Every segment holds
    // at least one slot, so windowSize segments always suffice.
    std::vector<Segment> segments;
    std::size_t segHead = 0; //!< oldest segment
    std::size_t segCount = 0;
    std::size_t windowCount = 0; //!< slots, over all segments

    // The not-yet-windowed remainder of the current trace record.
    std::uint64_t pendingBubbles = 0;
    bool pendingAccessValid = false;
    trace::MemAccess pendingAccess{};

    InstCount retired = 0;
    std::uint64_t cycles = 0;

    // Shared-state bridge for load completions.
    struct Shared
    {
        std::vector<std::uint64_t> completedAddrs;
    };
    std::shared_ptr<Shared> shared;
};

} // namespace memcon::sim

#endif // MEMCON_SIM_CORE_HH
