/**
 * @file
 * A deterministic open-addressing flat set of page indices.
 *
 * PRIL's bounded write-buffers (Section 4.2, footnote 10) were
 * modelled with std::unordered_set, which costs a node allocation
 * per insert, a free per erase, and pointer-chasing on every probe -
 * the dominant per-write cost the micro_pril_ops bench measures.
 * This container replaces them with a fixed-capacity open-addressed
 * table:
 *
 *  - linear probing over a power-of-two slot array at <= 50% load
 *    (the capacity is known up front: the paper's buffer holds 4000
 *    entries), so probes are short and allocation-free;
 *  - backward-shift deletion instead of tombstones, so probe chains
 *    never grow stale and lookups stay short under erase-heavy
 *    churn. The slot layout is a deterministic function of the
 *    operation sequence (linear probing places same-home keys in
 *    arrival order, so it is NOT canonical for the key set alone -
 *    PrilPredictor fingerprints buffer membership through its
 *    write-maps, which ARE order-free, see DESIGN.md §19);
 *  - epoch-stamped slots, so the per-quantum clear() is O(1) instead
 *    of a table wipe.
 *
 * Not a general-purpose set: keys are u64 page indices, the capacity
 * is fixed at construction, and inserting past capacity is a panic
 * (PRIL checks size() < capacity and counts the drop instead).
 */

#ifndef MEMCON_COMMON_FLAT_SET_HH
#define MEMCON_COMMON_FLAT_SET_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon
{

class FlatPageSet
{
  public:
    /** @param capacity  maximum live entries (> 0). */
    explicit FlatPageSet(std::size_t capacity) : maxEntries(capacity)
    {
        fatal_if(capacity == 0, "flat set needs a positive capacity");
        std::size_t want = capacity * 2;
        slotCount = 16;
        while (slotCount < want)
            slotCount <<= 1;
        // Zeroed by memset, not a per-slot store loop: the library
        // routine runs at one speed wherever the linker places this
        // constructor, while the loop slowed down whenever its branch
        // straddled a 32-byte boundary (recent Intel cores).
        slots = std::make_unique_for_overwrite<Slot[]>(slotCount);
        std::memset(slots.get(), 0, slotCount * sizeof(Slot));
    }

    std::size_t capacity() const { return maxEntries; }
    std::size_t size() const { return liveCount; }
    bool empty() const { return liveCount == 0; }

    /**
     * Insert a key. @return true if it was absent (now present).
     * Panics at capacity - the caller owns the bounded-buffer drop
     * policy and must check size() first.
     */
    bool
    insert(std::uint64_t key)
    {
        std::size_t i = probe(key);
        if (live(i) && slots[i].key == key)
            return false;
        panic_if(liveCount >= maxEntries,
                 "flat set over capacity (%zu)", maxEntries);
        slots[i].key = key;
        slots[i].stamp = epoch;
        ++liveCount;
        return true;
    }

    bool
    contains(std::uint64_t key) const
    {
        std::size_t i = probe(key);
        return live(i) && slots[i].key == key;
    }

    /**
     * Erase a key. @return true if it was present. Backward-shift
     * compaction closes the hole so probe chains stay tombstone-free.
     */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = probe(key);
        if (!live(i) || slots[i].key != key)
            return false;
        --liveCount;
        // Shift the probe chain after i back over the hole: any
        // later entry whose home slot is outside (i, j] cyclically
        // cannot be reached through j once i empties, so it moves.
        std::size_t mask = slotCount - 1;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask;
            if (!live(j))
                break;
            std::size_t home = homeOf(slots[j].key);
            // Distance from home to the candidate hole vs to j,
            // cyclically: if the hole is closer to (or at) home, the
            // entry may legally occupy it.
            if (((j - home) & mask) >= ((j - i) & mask)) {
                slots[i] = slots[j];
                i = j;
            }
        }
        slots[i].stamp = epoch - 1; // mark stale
        return true;
    }

    /** Drop every entry in O(1) by advancing the epoch stamp. */
    void
    clearAll()
    {
        ++epoch;
        liveCount = 0;
    }

    /**
     * Visit live entries in slot order (ascending slot index). The
     * order is deterministic for a given operation sequence but NOT
     * canonical for the key set (see the file comment) and NOT
     * key-ascending; fingerprints should derive ordering elsewhere.
     */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slotCount; ++i)
            if (live(i))
                fn(slots[i].key);
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t stamp; //!< live iff stamp == epoch
    };

    bool live(std::size_t i) const { return slots[i].stamp == epoch; }

    std::size_t
    homeOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(hashMix64(key)) &
               (slotCount - 1);
    }

    /** First slot holding key, else the first free slot of its chain. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t mask = slotCount - 1;
        std::size_t i = homeOf(key);
        while (live(i) && slots[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    std::size_t maxEntries;
    std::size_t slotCount = 0;
    std::size_t liveCount = 0;
    std::uint64_t epoch = 1; //!< stamp 0 means never-occupied
    std::unique_ptr<Slot[]> slots;
};

} // namespace memcon

#endif // MEMCON_COMMON_FLAT_SET_HH
