/**
 * @file
 * The data-dependent DRAM failure model.
 *
 * This is the stand-in for the paper's FPGA-tested real DRAM chips.
 * Failures are produced by a sparse population of vulnerable cells:
 *
 *  - Each physical row holds Poisson(vulnerableCellsPerRow) coupling-
 *    sensitive cells. A vulnerable cell has coupling weights to its
 *    two bitline neighbours (wLeft, wRight) and a margin
 *    m = marginFrac * (wLeft + wRight).
 *
 *  - A cell's charge state is polarity-relative: a true cell is
 *    charged when storing 1, an anti cell when storing 0 (per-row
 *    polarity, as in real arrays).
 *
 *  - With content installed, the aggression on a victim is
 *    a = wLeft * [neighbour charge != victim charge]
 *      + wRight * [neighbour charge != victim charge],
 *    i.e. adjacent-bitline charge contrast couples disturbance in.
 *
 *  - Leakage grows with the refresh interval t: the cell fails iff
 *    a * (t / nominal)^leakExponent >= m. This makes failure sets
 *    monotone in t and reproduces the experimental observation that
 *    data-dependent failures grow quickly at relaxed refresh.
 *
 *  - A second, smaller population of retention-weak cells fails
 *    whenever t exceeds the cell's retention time, independent of
 *    content (the paper's footnote 1: easy to detect, not the hard
 *    problem).
 *
 * Address scrambling and column remapping sit between the logical
 * (system) view and the physical array, so content written to
 * logically adjacent addresses does not land in physically adjacent
 * cells - the property that defeats system-level neighbour testing
 * (Section 2).
 *
 * Calibration: with the default parameters, ~13.5% of rows contain at
 * least one cell that some content can fail at the nominal interval
 * ("ALL FAIL", Figure 4), while program-like content fails 0.3%-6% of
 * rows depending on its bit-transition density. marginFrac is drawn
 * above (hiRefInterval/nominal)^leakExponent, which makes the HI-REF
 * rate provably safe - the guarantee MEMCON's mitigation relies on.
 */

#ifndef MEMCON_FAILURE_MODEL_HH
#define MEMCON_FAILURE_MODEL_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/strong_id.hh"

#include "failure/content.hh"
#include "failure/remap.hh"
#include "failure/scrambler.hh"

namespace memcon::failure
{

/** A coupling-vulnerable cell at a fixed physical position. */
struct VulnerableCell
{
    std::uint64_t column; //!< storage-column position in the row
    float wLeft;          //!< coupling weight to column-1
    float wRight;         //!< coupling weight to column+1
    float marginFrac;     //!< margin as a fraction of (wLeft+wRight)
};

/** A retention-weak cell that fails past its retention time. */
struct WeakCell
{
    std::uint64_t column;
    double retentionMs;
};

/** One observed failure: where, and why. */
struct CellFailure
{
    RowId physicalRow;
    std::uint64_t column;
    bool dataDependent; //!< false for retention-weak failures
};

struct FailureModelParams
{
    /** Poisson mean of coupling-vulnerable cells per row. */
    double vulnerableCellsPerRow = 0.144;

    /** Poisson mean of retention-weak cells per row. */
    double weakCellsPerRow = 0.01;

    /**
     * Refresh interval at which a maximally-aggressed vulnerable
     * cell is guaranteed to fail (the characterization interval).
     */
    double nominalIntervalMs = 64.0;

    /** Leakage growth exponent in (t/nominal)^beta. */
    double leakExponent = 2.0;

    /** marginFrac lower bound; keeps HI-REF (nominal/4) safe. */
    double marginFracMin = 0.07;

    /** Coupling-weight range. */
    double weightMin = 0.2;
    double weightMax = 1.0;

    /** Weak-cell retention range as multiples of nominal. */
    double retentionMinFrac = 0.3;
    double retentionMaxFrac = 4.0;

    /** Per-module seed; also keys the scrambler and remapper. */
    std::uint64_t seed = 1;

    /** Disable vendor address scrambling (exposes internals). */
    bool scrambling = true;

    /** Spare columns per row and how many carry repairs. */
    std::uint64_t redundantColumns = 128;
    std::uint64_t remappedColumns = 24;
};

class FailureModel
{
  public:
    /**
     * @param params   model parameters
     * @param num_rows physical rows in the modelled module (power of 2)
     * @param cells_per_row addressable cells (bits) per row (power of 2)
     */
    FailureModel(const FailureModelParams &params, std::uint64_t num_rows,
                 std::uint64_t cells_per_row);

    const FailureModelParams &params() const { return modelParams; }
    std::uint64_t numRows() const { return rows; }
    std::uint64_t cellsPerRow() const { return columns; }

    const AddressScrambler &scrambler() const { return scrambler_; }
    const ColumnRemapper &remapper() const { return remapper_; }

    /** Deterministic vulnerable-cell population of a physical row. */
    const std::vector<VulnerableCell> &
    cellsOfRow(RowId physical_row) const;

    /** True/anti polarity of a physical row (true = charged on 1). */
    bool rowPolarity(RowId physical_row) const;

    /**
     * Failures in one physical row with the given logical content
     * installed, after the row idles for interval_ms.
     *
     * One record per failing population member. Members draw their
     * columns independently, so two records can share a column; the
     * cell still reads back as its stored bit inverted, once. A
     * failure at an unused spare or fused-off column has no logical
     * address and never reaches a readback - DramTester's block
     * paths project these records onto the logical bits the memory
     * controller sees (DESIGN.md §19).
     */
    std::vector<CellFailure>
    evaluatePhysicalRow(RowId physical_row,
                        const ContentProvider &content,
                        double interval_ms) const;

    /** @return true if the row has any failure under the content. */
    bool physicalRowFails(RowId physical_row,
                          const ContentProvider &content,
                          double interval_ms) const;

    /** Logical-row variant (applies the row scrambler first). */
    bool logicalRowFails(RowId logical_row,
                         const ContentProvider &content,
                         double interval_ms) const;

    /**
     * Worst-case query: could *any* content fail this row at the
     * interval? This is what exhaustive manufacturer testing with
     * physical-layout knowledge establishes ("ALL FAIL").
     */
    bool physicalRowCanFail(RowId physical_row,
                            double interval_ms) const;

    /**
     * The charge state ("charged" = capacitor holds charge) of the
     * cell at a storage column given the installed logical content.
     * Unused spare columns and fused-off faulty columns are never
     * charged.
     */
    bool chargedAt(RowId physical_row, std::uint64_t storage_col,
                   const ContentProvider &content) const;

  private:
    struct RowPopulation
    {
        std::vector<VulnerableCell> vulnerable;
        std::vector<WeakCell> weak;
    };

    const RowPopulation &population(RowId physical_row) const;
    double leakScale(double interval_ms) const;

    FailureModelParams modelParams;
    std::uint64_t rows;
    std::uint64_t columns;
    AddressScrambler scrambler_;
    ColumnRemapper remapper_;

    mutable std::unordered_map<RowId, RowPopulation> cache;
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_MODEL_HH
