/**
 * @file
 * The controller-side online test machinery (Section 3.2/3.3 and the
 * appendix).
 *
 * Testing a row for data-dependent failures means letting its cells
 * decay for a full refresh interval, which makes the row unreadable
 * in place. The TestEngine manages everything around that:
 *
 *  - a bounded number of concurrent in-test rows (test slots),
 *  - Read&Compare mode: the row is buffered inside the controller
 *    (SRAM cost: one row per slot) and program accesses are served
 *    from the buffer,
 *  - Copy&Compare mode: the row is copied to a reserved DRAM region
 *    (512 rows per bank -> 1.56% of a 2 GB module, appendix) and the
 *    controller retains only the row's SECDED signature (1/8 of the
 *    data size); program reads are redirected to the copy,
 *  - a redirection table from in-test row -> buffer slot / reserve
 *    row consulted on every access,
 *  - completion: the decayed row is read back and compared (data
 *    compare in R&C, signature compare in C&C); any mismatch means
 *    the current content fails at the tested interval.
 *
 * A program *write* to an in-test row aborts the test: the content
 * is changing, so the result would be stale (the engine-level
 * mechanism then demotes the row to HI-REF as usual).
 */

#ifndef MEMCON_CORE_TEST_ENGINE_HH
#define MEMCON_CORE_TEST_ENGINE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/strong_id.hh"
#include "core/cost_model.hh"
#include "dram/ecc.hh"

namespace memcon::core
{

/** Why a test session ended. */
enum class TestOutcome
{
    Pass,          //!< content identical after the idle period
    Fail,          //!< at least one word decayed
    AbortedByWrite //!< program wrote the row mid-test
};

/** Where a redirected access should be served from. */
struct Redirection
{
    bool inController = false; //!< served from the slot buffer (R&C)
    std::uint64_t reserveRow = 0; //!< reserve-region row (C&C)
};

struct TestEngineConfig
{
    TestMode mode = TestMode::ReadAndCompare;

    /** Concurrent in-test rows (paper models 256-1024). */
    std::size_t slots = 256;

    /** 64-bit words per row (8 KB row = 1024 words). */
    std::size_t wordsPerRow = 1024;

    /** Reserve rows per bank for Copy&Compare (appendix: 512). */
    std::uint64_t reserveRowsPerBank = 512;
    unsigned banks = 8;
};

class TestEngine
{
  public:
    /**
     * Reads the whole row into dst[0..n_words) in one call - the
     * bit-parallel form (DESIGN.md §19). The captured buffers are
     * then compared through the dispatched simd kernels.
     */
    using BlockRowReader = std::function<void(
        RowId row, std::uint64_t *dst, std::size_t n_words)>;

    explicit TestEngine(const TestEngineConfig &config);

    const TestEngineConfig &config() const { return cfg; }

    /** @return free test slots right now. */
    std::size_t freeSlots() const;

    /** @return true if the row is currently under test. */
    bool isUnderTest(RowId row) const;

    /**
     * Begin testing a row against its current content. Captures the
     * row (full data in R&C; SECDED signature + reserve copy in
     * C&C).
     *
     * @return false if no slot or (in C&C) no reserve row is free.
     */
    bool beginTest(RowId row, const BlockRowReader &reader);

    /**
     * Where to serve a program access to this row from during the
     * test; empty if the row is not under test (access the row
     * normally).
     */
    std::optional<Redirection> redirect(RowId row) const;

    /**
     * Notify a program write to the row. If it is under test, the
     * test aborts (slot and reserve row are recycled).
     *
     * @return true if an in-flight test was aborted
     */
    bool onWrite(RowId row);

    /**
     * Finish the test: read the decayed row back and compare against
     * the captured state.
     */
    TestOutcome completeTest(RowId row, const BlockRowReader &reader);

    /** Rows currently under test, ascending. */
    std::vector<RowId> rowsUnderTest() const;

    /**
     * Controller SRAM this configuration costs: slot buffers for
     * R&C (full rows), signatures only for C&C.
     */
    std::size_t controllerStorageBytes() const;

    /** DRAM capacity consumed by the reserve region, as a fraction
     * of a module with the given total rows. */
    double reserveCapacityFraction(std::uint64_t module_rows) const;

    // Statistics.
    std::uint64_t testsStarted() const { return started; }
    std::uint64_t testsPassed() const { return passed; }
    std::uint64_t testsFailed() const { return failed; }
    std::uint64_t testsAborted() const { return aborted; }
    std::uint64_t redirectedAccesses() const { return redirects; }

  private:
    struct Session
    {
        std::size_t slot;
        std::uint64_t reserveRow; //!< valid in Copy&Compare mode
        std::vector<std::uint64_t> bufferedData; //!< R&C only
        std::vector<std::uint8_t> signature;     //!< C&C only
    };

    void releaseSession(const Session &session);

    TestEngineConfig cfg;
    /** Reused readback scratch for the C&C and completion paths. */
    std::vector<std::uint64_t> readbackScratch;
    std::unordered_map<RowId, Session> sessions;
    std::vector<bool> slotBusy;
    std::vector<std::uint64_t> freeReserveRows;

    std::uint64_t started = 0;
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::uint64_t aborted = 0;
    mutable std::uint64_t redirects = 0;
};

} // namespace memcon::core

#endif // MEMCON_CORE_TEST_ENGINE_HH
