/**
 * @file
 * PRIL - the probabilistic remaining-interval-length predictor
 * (Section 4.2, Figure 13).
 *
 * PRIL divides time into fixed quanta and predicts that a page whose
 * last write happened at least one full quantum ago will stay
 * unwritten long enough to amortize a test. The hardware structures
 * are two write-maps (one bit per page) and two bounded
 * write-buffers (page addresses written exactly once in a quantum):
 *
 *  - on a write: if it is the page's first write this quantum, set
 *    the map bit and insert into the current buffer; otherwise
 *    remove it from the current buffer (interval < quantum). A write
 *    also evicts the page from the *previous* buffer - it clearly
 *    did not stay idle.
 *  - at quantum end: every page still in the previous buffer had one
 *    write in the quantum before last and none since - its current
 *    interval length exceeds a full quantum, so it becomes a test
 *    candidate. The previous map/buffer are cleared and the pair is
 *    swapped.
 *
 * A full write-buffer drops the new page (footnote 10): MEMCON keeps
 * it at HI-REF, losing opportunity but never correctness.
 *
 * PrilPredictor's write-buffers are deterministic open-addressing
 * flat sets (no per-write node churn). A derived erased-map per side
 * (bit set when a page leaves or is refused the buffer) makes
 * candidate extraction a bulk `map ANDNOT erased` + visit-set-bits
 * pass - no per-page hashing - which reproduces the sorted candidate
 * list exactly: buffer membership is precisely {map bit set, erased
 * bit clear}, because pages enter the buffer only after testAndSet,
 * leave it at most once per quantum (re-insertion is impossible -
 * insert happens only on the first write), and buffer erases never
 * clear map bits. The same invariant lets onWrite skip the
 * previous-buffer probe whenever the previous map bit is clear. The
 * property suite locksteps it against the seed std::unordered_set
 * implementation, which lives in tests/oracles (DESIGN.md §19).
 */

#ifndef MEMCON_CORE_PRIL_HH
#define MEMCON_CORE_PRIL_HH

#include <cstdint>
#include <vector>

#include "common/bitvector.hh"
#include "common/flat_set.hh"
#include "common/strong_id.hh"
#include "common/units.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::core
{

class PrilPredictor
{
  public:
    /**
     * @param num_pages        pages tracked (one write-map bit each)
     * @param buffer_capacity  write-buffer entries (paper: 4000)
     */
    PrilPredictor(std::uint64_t num_pages, std::size_t buffer_capacity);

    /** Record a write access to a page (Figure 13 left half). */
    void onWrite(PageId page);

    /**
     * Close the current quantum (Figure 13 right half).
     * @return pages predicted to have long remaining intervals -
     *         MEMCON initiates tests on these.
     */
    std::vector<PageId> endQuantum();

    /**
     * endQuantum() without the per-quantum allocation: candidates are
     * written into out (cleared first; capacity retained), ascending.
     */
    void endQuantumInto(std::vector<PageId> &out);

    std::uint64_t numPages() const { return pages; }
    std::size_t bufferCapacity() const { return capacity; }

    /** Pages dropped because the write-buffer was full. */
    std::uint64_t bufferDrops() const { return drops; }

    /** Peak simultaneous write-buffer occupancy observed. */
    std::size_t peakBufferOccupancy() const { return peakOccupancy; }

    /** SRAM footprint of maps + buffers, for the §6.4 accounting. */
    std::size_t storageBytes() const;

    /** @return true if the page currently sits in either buffer. */
    bool isTracked(PageId page) const;

    /**
     * CRC over the complete predictor state (maps, buffers, swap
     * phase, drop/peak counters). Two predictors in equal logical
     * states fingerprint identically regardless of how they reached
     * them; the service layer uses this to prove a restored tenant
     * matches its snapshot. Buffer members are mixed in ascending
     * page order, recovered for free from the derived erased map
     * (`map ANDNOT erased`), so no sorting pass is needed.
     */
    std::uint32_t stateFingerprint() const;

    /**
     * Save the predictor as a state record line: swap phase, counters,
     * and per side the write map and the erased map (buffer membership
     * is `map ANDNOT erased`, so the flat sets' history-dependent slot
     * layout is never written). loadState rebuilds the buffers from
     * the maps.
     */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

  private:
    std::uint64_t pages;
    std::size_t capacity;

    // Index 0/1 with `current` selecting the active pair; the other
    // pair is the previous quantum's.
    BitVector writeMap[2];
    FlatPageSet writeBuffer[2];

    // Host-side acceleration state, not modelled SRAM: erasedMap[s]
    // holds exactly (map[s] set bits) minus (buffer[s] members) -
    // every page that set its map bit but then left the buffer
    // (re-write), was evicted from the previous buffer (write in the
    // following quantum), or was refused entry (drop). Maintained on
    // the rare leave/drop paths only; saved and restored with the
    // maps.
    BitVector erasedMap[2];

    // Per-quantum extraction scratch (capacity retained across
    // quanta): map ANDNOT erased, then visit.
    BitVector extractScratch;

    unsigned current = 0;

    std::uint64_t drops = 0;
    std::size_t peakOccupancy = 0;
};

} // namespace memcon::core

#endif // MEMCON_CORE_PRIL_HH
