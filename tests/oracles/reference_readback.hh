/**
 * @file
 * Test oracle: the materialize-and-compare block tester (DESIGN.md
 * §19), kept only to prove failure::DramTester's block paths
 * reproduce it.
 *
 * It runs Figure 4's experiment the literal way: fill the expected
 * row word by word through ContentProvider::wordAt, build the
 * read-back row the memory controller would see, and compare the two
 * with plain loops (std::equal, std::popcount of the xor, and a dense
 * per-row seen-mask for the battery's coverage). It shares no code
 * with src/failure/tester.cc, so a bug in the production projection
 * of visible failures cannot hide in both sides of a differential
 * test.
 */

#ifndef MEMCON_TESTS_ORACLES_REFERENCE_READBACK_HH
#define MEMCON_TESTS_ORACLES_REFERENCE_READBACK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/strong_id.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/tester.hh"

namespace memcon::oracles
{

/**
 * The logical words read back from one physical row after it idles
 * for interval_ms with the content installed: the scrambled logical
 * row's words, with each logically visible failing cell
 * reading as its stored bit inverted. Failures at unused spare or
 * fused-off columns have no logical address and stay invisible.
 */
void referenceReadback(const failure::FailureModel &model,
                       RowId physical_row,
                       const failure::ContentProvider &content,
                       double interval_ms, std::uint64_t *dst,
                       std::size_t n_words);

/** Reference counterpart of DramTester::testWithContentBlock. */
failure::TestResult
referenceTestWithContentBlock(const failure::FailureModel &model,
                              const failure::ContentProvider &content,
                              double interval_ms,
                              std::uint64_t row_limit = 0);

/** Reference counterpart of DramTester::batteryFailingBitCounts. */
std::vector<failure::DramTester::PatternBitCounts>
referenceBatteryFailingBitCounts(
    const failure::FailureModel &model,
    const std::vector<failure::PatternContent> &battery,
    double interval_ms, std::uint64_t row_limit = 0);

} // namespace memcon::oracles

#endif // MEMCON_TESTS_ORACLES_REFERENCE_READBACK_HH
