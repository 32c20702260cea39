#include "oracles/reference_pril.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ordered.hh"

namespace memcon::oracles
{

ReferencePrilPredictor::ReferencePrilPredictor(std::uint64_t num_pages,
                                               std::size_t buffer_capacity)
    : pages(num_pages), capacity(buffer_capacity)
{
    fatal_if(num_pages == 0, "tracker needs at least one page");
    fatal_if(buffer_capacity == 0, "write buffer cannot be empty");
    writeMap[0].resizeAndClear(num_pages);
    writeMap[1].resizeAndClear(num_pages);
}

void
ReferencePrilPredictor::onWrite(PageId page)
{
    panic_if(page.value() >= pages, "page %llu out of range",
             static_cast<unsigned long long>(page.value()));

    unsigned cur = current;
    unsigned prev = 1 - current;

    writeBuffer[prev].erase(page);

    bool already_written = writeMap[cur].testAndSet(page.value());
    if (!already_written) {
        if (writeBuffer[cur].size() >= capacity) {
            ++drops;
            return;
        }
        writeBuffer[cur].insert(page);
        peakOccupancy = std::max(peakOccupancy, writeBuffer[cur].size());
    } else {
        writeBuffer[cur].erase(page);
    }
}

std::vector<PageId>
ReferencePrilPredictor::endQuantum()
{
    unsigned prev = 1 - current;

    // The candidate list feeds test scheduling and stats, so it must
    // not inherit hash-set iteration order.
    std::vector<PageId> candidates =
        ordered::sortedValues(writeBuffer[prev]);

    writeBuffer[prev].clear();
    writeMap[prev].clearAll();
    current = prev;
    return candidates;
}

std::size_t
ReferencePrilPredictor::storageBytes() const
{
    return writeMap[0].storageBytes() + writeMap[1].storageBytes() +
           2 * capacity * 5;
}

bool
ReferencePrilPredictor::isTracked(PageId page) const
{
    return writeBuffer[0].count(page) || writeBuffer[1].count(page);
}

} // namespace memcon::oracles
