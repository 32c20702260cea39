/**
 * @file
 * Variable retention time (VRT) - the extension hazard the paper's
 * related work (AVATAR, Qureshi et al., DSN'15) addresses.
 *
 * Some DRAM cells toggle between a high-retention and a low-
 * retention state at random (random telegraph noise in the junction
 * leakage). A cell that passed a retention test can later drop into
 * its leaky state and fail at the same refresh interval, which is
 * what makes one-shot profiling unsafe. MEMCON is naturally more
 * robust than boot-time profiling - every write eventually triggers
 * a retest with current content - but long-idle LO-REF rows would
 * still be exposed, which motivates a periodic re-scrub of idle rows
 * as an extension.
 *
 * The model: a sparse population of VRT cells per row; each cell's
 * state is a deterministic two-state telegraph process with
 * exponential dwell times, so any (cell, time) query is O(number of
 * toggles), reproducible, and agrees across queries.
 */

#ifndef MEMCON_FAILURE_VRT_HH
#define MEMCON_FAILURE_VRT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/strong_id.hh"
#include "common/units.hh"

namespace memcon::failure
{

struct VrtParams
{
    /** Poisson mean of VRT cells per row. */
    double vrtCellsPerRow = 0.02;

    /** Mean dwell time in each retention state (ms). */
    double dwellHighMs = 60000.0; //!< healthy state
    double dwellLowMs = 8000.0;   //!< leaky state

    /**
     * Refresh interval above which a cell in its leaky state fails;
     * cells never fail in the healthy state at operating intervals.
     */
    double leakyFailIntervalMs = 48.0;

    std::uint64_t seed = 1;
};

/** Bit columns per row a VRT cell can occupy (8 KB rows). */
constexpr std::uint64_t kVrtColumnsPerRow = std::uint64_t{1} << 16;

/** One VRT cell: its column and its telegraph-process identity. */
struct VrtCell
{
    std::uint64_t column;
    std::uint64_t processSeed;
};

class VrtPopulation
{
  public:
    VrtPopulation(const VrtParams &params, std::uint64_t num_rows);

    const VrtParams &params() const { return vrtParams; }
    std::uint64_t numRows() const { return rows; }

    /** Deterministic VRT cells of a row. */
    const std::vector<VrtCell> &cellsOfRow(RowId row) const;

    /**
     * @return true if the cell is in its leaky state at the given
     * time. The telegraph process starts in the healthy state at
     * t = 0 and is replayed deterministically.
     */
    bool isLeakyAt(const VrtCell &cell, TimeMs time_ms) const;

    /**
     * @return true if the row would fail at the given refresh
     * interval at the given instant (any VRT cell leaky and the
     * interval beyond its leaky threshold).
     */
    bool rowFailsAt(RowId row, double interval_ms,
                    TimeMs time_ms) const;

  private:
    VrtParams vrtParams;
    std::uint64_t rows;
    mutable std::unordered_map<RowId, std::vector<VrtCell>>
        cache;
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_VRT_HH
