/**
 * @file
 * The controller-side online test machinery (Section 3.2/3.3 and the
 * appendix).
 *
 * Testing a row for data-dependent failures means letting its cells
 * decay for a full refresh interval, which makes the row unreadable
 * in place. The TestEngine keeps the bookkeeping around that:
 *
 *  - a bounded number of concurrent in-test rows (test slots),
 *  - Read&Compare mode: the row is buffered inside the controller
 *    (SRAM cost: one row per slot) and program accesses are served
 *    from the buffer,
 *  - Copy&Compare mode: the row is copied to a reserved DRAM region
 *    (512 rows per bank -> 1.56% of a 2 GB module, appendix) and the
 *    controller retains only the row's SECDED check bytes (1/8 of the
 *    data size); program reads are redirected to the copy, so a test
 *    also needs a free reserve row,
 *  - completion: the caller supplies the read-back verdict. The
 *    simulator does not model row content here; OnlineMemcon's
 *    failure oracle decides whether the row decayed. Both compares
 *    are exact for a single decayed cell: R&C compares the data, and
 *    in C&C any 1- or 2-bit change to a word changes its check byte.
 *
 * A program *write* to an in-test row aborts the test: the content
 * is changing, so the result would be stale (the engine-level
 * mechanism then demotes the row to HI-REF as usual).
 */

#ifndef MEMCON_CORE_TEST_ENGINE_HH
#define MEMCON_CORE_TEST_ENGINE_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/strong_id.hh"
#include "core/cost_model.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::core
{

/** Why a test session ended. */
enum class TestOutcome
{
    Pass,          //!< content identical after the idle period
    Fail,          //!< at least one word decayed
    AbortedByWrite //!< program wrote the row mid-test
};

struct TestEngineConfig
{
    TestMode mode = TestMode::ReadAndCompare;

    /** Concurrent in-test rows (paper models 256-1024). */
    std::size_t slots = 256;

    /** 64-bit words per row (8 KB row = 1024 words). Only checked
     *  and recorded in memcond's snapshot fingerprint. */
    std::size_t wordsPerRow = 1024;

    /** Reserve rows per bank for Copy&Compare (appendix: 512). */
    std::uint64_t reserveRowsPerBank = 512;
    unsigned banks = 8;
};

class TestEngine
{
  public:
    explicit TestEngine(const TestEngineConfig &config);

    const TestEngineConfig &config() const { return cfg; }

    /** @return free test slots right now. */
    std::size_t freeSlots() const;

    /** @return true if the row is currently under test. */
    bool isUnderTest(RowId row) const;

    /**
     * Begin testing a row against its current content: takes a slot
     * and, in C&C, a reserve row.
     *
     * @return false if no slot or (in C&C) no reserve row is free.
     */
    bool beginTest(RowId row);

    /**
     * Notify a program write to the row. If it is under test, the
     * test aborts (slot and reserve row are recycled).
     *
     * @return true if an in-flight test was aborted
     */
    bool onWrite(RowId row);

    /**
     * Finish the test with the read-back verdict: `decayed` means at
     * least one cell of the row changed during the idle period.
     */
    TestOutcome completeTest(RowId row, bool decayed);

    /** Rows currently under test, ascending. */
    std::vector<RowId> rowsUnderTest() const;

    /** Save the rows under test (ascending) and the counters as a
     * state record line; loadState checks each row against
     * `num_rows` and the slot capacity. */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in, std::uint64_t num_rows);

    // Statistics.
    std::uint64_t testsStarted() const { return started; }
    std::uint64_t testsPassed() const { return passed; }
    std::uint64_t testsFailed() const { return failed; }
    std::uint64_t testsAborted() const { return aborted; }

  private:
    TestEngineConfig cfg;
    /** Concurrent tests the slots and (in C&C) reserve rows allow. */
    std::size_t capacity;
    std::unordered_set<RowId> inTest;

    std::uint64_t started = 0;
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::uint64_t aborted = 0;
};

} // namespace memcon::core

#endif // MEMCON_CORE_TEST_ENGINE_HH
