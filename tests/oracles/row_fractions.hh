/**
 * @file
 * Test helpers: the fraction of a module's rows that fail. The
 * calibration suites check the paper's numbers with them (13.5% of
 * rows can fail with some content, none at HI-REF, VRT rows appear
 * only past the leaky threshold). No shipped path sweeps whole
 * modules row by row, so the loops live here and call the shipped
 * per-row predicates.
 */

#ifndef MEMCON_TESTS_ORACLES_ROW_FRACTIONS_HH
#define MEMCON_TESTS_ORACLES_ROW_FRACTIONS_HH

#include <cstdint>

#include "common/units.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/vrt.hh"

namespace memcon::oracles
{

/** Rows in [0, row_limit) (0 = all) failing with the content
 * (FailureModel::physicalRowFails). */
double failingRowFraction(const failure::FailureModel &model,
                          const failure::ContentProvider &content,
                          double interval_ms, std::uint64_t row_limit = 0);

/** Rows in [0, row_limit) that some content could fail
 * (FailureModel::physicalRowCanFail): RAIDR's HI-REF profile. */
double worstCaseRowFraction(const failure::FailureModel &model,
                            double interval_ms,
                            std::uint64_t row_limit = 0);

/** Rows in [0, row_limit) failing at the instant
 * (VrtPopulation::rowFailsAt). */
double failingRowFraction(const failure::VrtPopulation &pop,
                          double interval_ms, TimeMs time_ms,
                          std::uint64_t row_limit = 0);

} // namespace memcon::oracles

#endif // MEMCON_TESTS_ORACLES_ROW_FRACTIONS_HH
