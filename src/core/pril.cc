#include "core/pril.hh"

#include <algorithm>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::core
{

// --------------------------------------------------------------------
// PrilPredictor: flat-set buffers, batched candidate extraction.
// --------------------------------------------------------------------

namespace
{

/**
 * Entries a write buffer's flat set must hold. Membership never
 * exceeds the page count, so a logical capacity above it would only
 * allocate slots that can never fill; the logical capacity still
 * drives drops, storage accounting and loadState's bound.
 */
std::size_t
bufferEntries(std::uint64_t num_pages, std::size_t buffer_capacity)
{
    fatal_if(num_pages == 0, "tracker needs at least one page");
    fatal_if(buffer_capacity == 0, "write buffer cannot be empty");
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer_capacity, num_pages));
}

} // namespace

PrilPredictor::PrilPredictor(std::uint64_t num_pages,
                             std::size_t buffer_capacity)
    : pages(num_pages), capacity(buffer_capacity),
      writeBuffer{FlatPageSet(bufferEntries(num_pages, buffer_capacity)),
                  FlatPageSet(bufferEntries(num_pages, buffer_capacity))}
{
    writeMap[0].resizeAndClear(num_pages);
    writeMap[1].resizeAndClear(num_pages);
    erasedMap[0].resizeAndClear(num_pages);
    erasedMap[1].resizeAndClear(num_pages);
}

void
PrilPredictor::onWrite(PageId page)
{
    panic_if(page.value() >= pages, "page %llu out of range",
             static_cast<unsigned long long>(page.value()));

    unsigned cur = current;
    unsigned prev = 1 - current;

    // A write in this quantum disqualifies any candidacy from the
    // previous quantum (step 3 in Figure 13). Buffer membership
    // implies the map bit is set, so a clear bit skips the probe -
    // the common case under sparse traffic.
    if (writeMap[prev].test(page.value()) &&
        writeBuffer[prev].erase(page.value()))
        erasedMap[prev].set(page.value());

    bool already_written = writeMap[cur].testAndSet(page.value());
    if (!already_written) {
        // First write this quantum (step 1): track it, unless full.
        if (writeBuffer[cur].size() >= capacity) {
            ++drops;
            erasedMap[cur].set(page.value());
            return;
        }
        writeBuffer[cur].insert(page.value());
        peakOccupancy = std::max(peakOccupancy, writeBuffer[cur].size());
    } else {
        // Second or later write (step 2): interval below a quantum.
        if (writeBuffer[cur].erase(page.value()))
            erasedMap[cur].set(page.value());
    }
}

std::vector<PageId>
PrilPredictor::endQuantum()
{
    std::vector<PageId> candidates;
    endQuantumInto(candidates);
    return candidates;
}

void
PrilPredictor::endQuantumInto(std::vector<PageId> &out)
{
    unsigned prev = 1 - current;

    // Pages surviving in the previous buffer had exactly one write
    // in the quantum before last and none since (step 4). Buffer
    // membership is exactly {map bit set, erased bit clear} - pages
    // enter the buffer only after testAndSet, every departure (step-2
    // erase, step-3 eviction, drop) stamps the erased map, and
    // re-entry within a quantum is impossible - so one bulk
    // `map ANDNOT erased` pass plus a visit of the surviving bits
    // (ascending by construction) reproduces the sorted candidate
    // list without per-page hashing, materializing, or sorting.
    out.clear();
    if (!writeBuffer[prev].empty()) {
        extractScratch = writeMap[prev];
        extractScratch.andNotWith(erasedMap[prev]);
        extractScratch.visitSetBits([&out](std::size_t bit) {
            out.push_back(PageId{bit});
        });
    }

    // Step 5: clear the previous structures and swap roles.
    writeBuffer[prev].clearAll();
    writeMap[prev].clearAll();
    erasedMap[prev].clearAll();
    current = prev;
}

std::size_t
PrilPredictor::storageBytes() const
{
    // Two bit-vector write-maps plus two write-buffers of page
    // addresses (modelled at 34 bits, rounded to 5 bytes, per entry
    // as in §6.4's 17 KB for 4000 entries). The flat set's host-side
    // slot array and the derived erased maps are implementation
    // details, not modelled SRAM, so the accounting matches the
    // reference predictor exactly.
    return writeMap[0].storageBytes() + writeMap[1].storageBytes() +
           2 * capacity * 5;
}

bool
PrilPredictor::isTracked(PageId page) const
{
    return writeBuffer[0].contains(page.value()) ||
           writeBuffer[1].contains(page.value());
}

std::uint32_t
PrilPredictor::stateFingerprint() const
{
    // CRC over a canonical little-endian serialization: the swap
    // phase, counters, each map's set bits, and each buffer's members
    // in ascending page order. Membership order comes from the
    // derived erased map (`map ANDNOT erased` visits ascending), not
    // from flat-set slot order - slot layout under linear probing is
    // a function of the operation history, while this serialization
    // depends only on the logical state, so two predictors in equal
    // states fingerprint identically however they got there
    // (DESIGN.md §19).
    ckpt::WordCrc crc;
    crc.add(current);
    crc.add(drops);
    crc.add(peakOccupancy);
    for (unsigned side = 0; side < 2; ++side) {
        writeMap[side].visitSetBits([&crc](std::size_t bit) { crc.add(bit); });
        crc.add(0xA5A5A5A5ull); // side separator
        BitVector members = writeMap[side];
        members.andNotWith(erasedMap[side]);
        members.visitSetBits([&crc](std::size_t bit) { crc.add(bit); });
        crc.add(0x5A5A5A5Aull);
    }
    return crc.value();
}

void
PrilPredictor::saveState(StateWriter &out) const
{
    out.line("pril");
    out.u64("cur", current);
    out.u64("drops", drops);
    out.u64("peak", peakOccupancy);
    out.bits("map0", writeMap[0]);
    out.bits("gone0", erasedMap[0]);
    out.bits("map1", writeMap[1]);
    out.bits("gone1", erasedMap[1]);
}

void
PrilPredictor::loadState(StateReader &in)
{
    in.line("pril");
    current = static_cast<unsigned>(in.u64("cur", 2));
    drops = in.u64("drops");
    peakOccupancy = in.u64("peak", capacity + 1);
    for (unsigned side = 0; side < 2; ++side) {
        in.bits(side == 0 ? "map0" : "map1", writeMap[side]);
        in.bits(side == 0 ? "gone0" : "gone1", erasedMap[side]);
        // Membership is exactly {map set, erased clear}; an erased bit
        // outside the map breaks that invariant.
        BitVector stray = erasedMap[side];
        stray.andNotWith(writeMap[side]);
        in.check(stray.count() == 0, "PRIL erased map leaves its write map");
        BitVector members = writeMap[side];
        members.andNotWith(erasedMap[side]);
        in.check(members.count() <= capacity,
                 "PRIL write buffer over its capacity");
        writeBuffer[side].clearAll();
        members.visitSetBits(
            [this, side](std::size_t page) { writeBuffer[side].insert(page); });
    }
}

} // namespace memcon::core
