#include "core/test_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ordered.hh"

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

} // namespace memcon::core
