/**
 * @file
 * Test oracle: the seed hash-set PRIL implementation (Section 4.2,
 * Figure 13), kept only as a cross-check for core::PrilPredictor.
 *
 * Same semantics as the production predictor - candidates, drops,
 * peak occupancy, and storage accounting agree bit-for-bit (the
 * property suite locksteps the two) - but built on the obvious
 * containers: a std::unordered_set per write-buffer and a sort of
 * the previous buffer at every quantum end. Deliberately shares no
 * code with src/core/pril.cc, so a bug there cannot hide in both.
 */

#ifndef MEMCON_TESTS_ORACLES_REFERENCE_PRIL_HH
#define MEMCON_TESTS_ORACLES_REFERENCE_PRIL_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/bitvector.hh"
#include "common/strong_id.hh"

namespace memcon::oracles
{

class ReferencePrilPredictor
{
  public:
    ReferencePrilPredictor(std::uint64_t num_pages,
                           std::size_t buffer_capacity);

    void onWrite(PageId page);

    /** Close the quantum; candidates ascending by page. */
    std::vector<PageId> endQuantum();

    std::uint64_t bufferDrops() const { return drops; }
    std::size_t peakBufferOccupancy() const { return peakOccupancy; }
    std::size_t storageBytes() const;
    bool isTracked(PageId page) const;

  private:
    std::uint64_t pages;
    std::size_t capacity;

    BitVector writeMap[2];
    std::unordered_set<PageId> writeBuffer[2];
    unsigned current = 0;

    std::uint64_t drops = 0;
    std::size_t peakOccupancy = 0;
};

} // namespace memcon::oracles

#endif // MEMCON_TESTS_ORACLES_REFERENCE_PRIL_HH
