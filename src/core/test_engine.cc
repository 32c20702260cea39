#include "core/test_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ordered.hh"
#include "common/state_io.hh"

namespace memcon::core
{

TestEngine::TestEngine(const TestEngineConfig &config)
    : cfg(config), capacity(config.slots)
{
    fatal_if(cfg.slots == 0, "test engine needs at least one slot");
    fatal_if(cfg.wordsPerRow == 0, "rows must hold at least one word");

    if (cfg.mode == TestMode::CopyAndCompare) {
        fatal_if(cfg.reserveRowsPerBank == 0 || cfg.banks == 0,
                 "Copy&Compare needs a reserve region");
        // Each in-test row holds one reserve row; their placement
        // does not matter to the engine, only how many there are.
        capacity = static_cast<std::size_t>(std::min<std::uint64_t>(
            cfg.slots, cfg.reserveRowsPerBank * cfg.banks));
    }
}

std::size_t
TestEngine::freeSlots() const
{
    return cfg.slots - inTest.size();
}

bool
TestEngine::isUnderTest(RowId row) const
{
    return inTest.count(row) != 0;
}

bool
TestEngine::beginTest(RowId row)
{
    panic_if(isUnderTest(row), "row is already under test");
    if (inTest.size() >= capacity)
        return false;
    inTest.insert(row);
    ++started;
    return true;
}

bool
TestEngine::onWrite(RowId row)
{
    if (inTest.erase(row) == 0)
        return false;
    ++aborted;
    return true;
}

TestOutcome
TestEngine::completeTest(RowId row, bool decayed)
{
    const bool began = inTest.erase(row) != 0;
    panic_if(!began, "completing a test that never began");
    if (decayed) {
        ++failed;
        return TestOutcome::Fail;
    }
    ++passed;
    return TestOutcome::Pass;
}

std::vector<RowId>
TestEngine::rowsUnderTest() const
{
    // Session bookkeeping is hash-keyed; the public view is sorted
    // so downstream stats and logs stay deterministic.
    return ordered::sortedKeys(inTest);
}

void
TestEngine::saveState(StateWriter &out) const
{
    out.line("test");
    out.u64("started", started);
    out.u64("passed", passed);
    out.u64("failed", failed);
    out.u64("aborted", aborted);
    std::vector<std::uint64_t> rows;
    for (RowId row : rowsUnderTest())
        rows.push_back(row.value());
    out.tuples("rows", rows);
}

void
TestEngine::loadState(StateReader &in, std::uint64_t num_rows)
{
    in.line("test");
    started = in.u64("started");
    passed = in.u64("passed");
    failed = in.u64("failed");
    aborted = in.u64("aborted");
    const std::vector<std::uint64_t> rows = in.tuples("rows", 1, num_rows);
    in.check(rows.size() <= capacity, "holds more tests than slots");
    inTest.clear();
    for (std::uint64_t row : rows)
        in.check(inTest.insert(RowId{row}).second,
                 "holds a row under test twice");
}

} // namespace memcon::core
