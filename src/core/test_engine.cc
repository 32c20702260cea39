#include "core/test_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ordered.hh"
#include "common/simd.hh"

namespace memcon::core
{

TestEngine::TestEngine(const TestEngineConfig &config) : cfg(config)
{
    fatal_if(cfg.slots == 0, "test engine needs at least one slot");
    fatal_if(cfg.wordsPerRow == 0, "rows must hold at least one word");
    slotBusy.assign(cfg.slots, false);

    if (cfg.mode == TestMode::CopyAndCompare) {
        fatal_if(cfg.reserveRowsPerBank == 0 || cfg.banks == 0,
                 "Copy&Compare needs a reserve region");
        std::uint64_t total = cfg.reserveRowsPerBank * cfg.banks;
        freeReserveRows.reserve(total);
        // Reserve rows are identified by negative-space ids counted
        // from the top of the row address space; the concrete
        // placement does not matter to the engine.
        for (std::uint64_t i = 0; i < total; ++i)
            freeReserveRows.push_back(~std::uint64_t{0} - i);
    }
}

std::size_t
TestEngine::freeSlots() const
{
    std::size_t busy = sessions.size();
    return cfg.slots - busy;
}

bool
TestEngine::isUnderTest(RowId row) const
{
    return sessions.count(row) != 0;
}

bool
TestEngine::beginTest(RowId row, const BlockRowReader &reader)
{
    panic_if(isUnderTest(row), "row is already under test");
    if (sessions.size() >= cfg.slots)
        return false;
    if (cfg.mode == TestMode::CopyAndCompare && freeReserveRows.empty())
        return false;

    Session session;
    auto slot_it = std::find(slotBusy.begin(), slotBusy.end(), false);
    panic_if(slot_it == slotBusy.end(), "slot accounting out of sync");
    session.slot = static_cast<std::size_t>(slot_it - slotBusy.begin());
    *slot_it = true;

    if (cfg.mode == TestMode::ReadAndCompare) {
        // Buffer the whole row in the controller.
        session.reserveRow = 0;
        session.bufferedData.resize(cfg.wordsPerRow);
        reader(row, session.bufferedData.data(), cfg.wordsPerRow);
    } else {
        // Copy to the reserve region; retain only the signature.
        session.reserveRow = freeReserveRows.back();
        freeReserveRows.pop_back();
        readbackScratch.resize(cfg.wordsPerRow);
        reader(row, readbackScratch.data(), cfg.wordsPerRow);
        session.signature = dram::Secded64::rowSignature(readbackScratch);
    }

    sessions.emplace(row, std::move(session));
    ++started;
    return true;
}

std::optional<Redirection>
TestEngine::redirect(RowId row) const
{
    auto it = sessions.find(row);
    if (it == sessions.end())
        return std::nullopt;
    ++redirects;
    Redirection r;
    if (cfg.mode == TestMode::ReadAndCompare) {
        r.inController = true;
    } else {
        r.inController = false;
        r.reserveRow = it->second.reserveRow;
    }
    return r;
}

void
TestEngine::releaseSession(const Session &session)
{
    panic_if(!slotBusy[session.slot], "slot accounting out of sync");
    slotBusy[session.slot] = false;
    if (cfg.mode == TestMode::CopyAndCompare)
        freeReserveRows.push_back(session.reserveRow);
}

bool
TestEngine::onWrite(RowId row)
{
    auto it = sessions.find(row);
    if (it == sessions.end())
        return false;
    releaseSession(it->second);
    sessions.erase(it);
    ++aborted;
    return true;
}

TestOutcome
TestEngine::completeTest(RowId row, const BlockRowReader &reader)
{
    auto it = sessions.find(row);
    panic_if(it == sessions.end(), "completing a test that never began");
    const Session &session = it->second;

    bool clean = true;
    readbackScratch.resize(cfg.wordsPerRow);
    reader(row, readbackScratch.data(), cfg.wordsPerRow);
    if (cfg.mode == TestMode::ReadAndCompare) {
        clean = simd::rowsEqual(readbackScratch.data(),
                                session.bufferedData.data(),
                                cfg.wordsPerRow);
    } else {
        clean = dram::Secded64::compareSignature(readbackScratch,
                                                 session.signature)
                    .empty();
    }

    releaseSession(session);
    sessions.erase(it);
    if (clean)
        ++passed;
    else
        ++failed;
    return clean ? TestOutcome::Pass : TestOutcome::Fail;
}

std::vector<RowId>
TestEngine::rowsUnderTest() const
{
    // Session bookkeeping is hash-keyed; the public view is sorted
    // so downstream stats and logs stay deterministic.
    return ordered::sortedKeys(sessions);
}

std::size_t
TestEngine::controllerStorageBytes() const
{
    if (cfg.mode == TestMode::ReadAndCompare) {
        // Full row data per slot.
        return cfg.slots * cfg.wordsPerRow * sizeof(std::uint64_t);
    }
    // One check byte per word per slot.
    return cfg.slots * cfg.wordsPerRow;
}

double
TestEngine::reserveCapacityFraction(std::uint64_t module_rows) const
{
    if (cfg.mode == TestMode::ReadAndCompare)
        return 0.0;
    fatal_if(module_rows == 0, "module must have rows");
    return static_cast<double>(cfg.reserveRowsPerBank) * cfg.banks /
           static_cast<double>(module_rows);
}

} // namespace memcon::core
