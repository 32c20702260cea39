#include "oracles/reference_core.hh"

#include "common/logging.hh"

namespace memcon::oracles
{

ReferenceCore::ReferenceCore(int core_id, trace::CpuAccessStream stream_in,
                             sim::MemoryController &controller,
                             std::uint64_t base_block,
                             std::uint64_t total_blocks,
                             unsigned issue_width, unsigned window_size)
    : coreId(core_id), stream(std::move(stream_in)), mc(controller),
      baseBlock(base_block), totalBlocks(total_blocks),
      issueWidth(issue_width), windowSize(window_size),
      window(window_size),
      completedAddrs(std::make_shared<std::vector<std::uint64_t>>())
{
    fatal_if(issue_width == 0 || window_size == 0,
             "issue width and window size must be positive");
    fatal_if(total_blocks == 0, "module must have at least one block");
}

void
ReferenceCore::refillPending()
{
    if (pendingBubbles == 0 && !pendingAccessValid) {
        pendingAccess = stream.next();
        pendingBubbles = pendingAccess.bubbleInsts;
        pendingAccessValid = true;
    }
}

void
ReferenceCore::tick(Tick now)
{
    ++cycles;

    // Mark loads completed by the controller since the last cycle.
    for (std::uint64_t addr : *completedAddrs) {
        for (std::size_t i = 0; i < windowCount; ++i) {
            WindowEntry &e = window[(windowHead + i) % windowSize];
            if (e.isLoad && !e.ready && e.addr == addr) {
                e.ready = true;
                break;
            }
        }
    }
    completedAddrs->clear();

    // Retire in order, up to issueWidth per cycle.
    unsigned retired_now = 0;
    while (retired_now < issueWidth && windowCount > 0) {
        const WindowEntry &head = window[windowHead];
        if (head.isLoad && !head.ready)
            break;
        windowHead = (windowHead + 1) % windowSize;
        --windowCount;
        ++retired;
        ++retired_now;
    }

    // Issue new instructions into the window, one slot each.
    unsigned issued = 0;
    while (issued < issueWidth && windowCount < windowSize) {
        refillPending();
        if (pendingBubbles > 0) {
            window[(windowHead + windowCount) % windowSize] = {false, true,
                                                               0};
            ++windowCount;
            --pendingBubbles;
            ++issued;
            continue;
        }
        panic_if(!pendingAccessValid, "trace refill failed");
        const std::uint64_t addr =
            ((baseBlock + pendingAccess.blockIndex) % totalBlocks) * 64;

        sim::Request req;
        req.addr = addr;
        req.coreId = coreId;
        const bool is_write = pendingAccess.isWrite;
        if (is_write) {
            req.type = sim::Request::Type::Write;
        } else {
            req.type = sim::Request::Type::Read;
            auto sink = completedAddrs;
            req.onComplete = [sink](const sim::Request &done) {
                sink->push_back(done.addr);
            };
        }
        if (!mc.enqueue(std::move(req), now))
            break; // queue full; retry next cycle
        window[(windowHead + windowCount) % windowSize] = {!is_write,
                                                           is_write, addr};
        ++windowCount;
        pendingAccessValid = false;
        ++issued;
    }
}

} // namespace memcon::oracles
