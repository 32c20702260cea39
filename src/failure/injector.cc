#include "failure/injector.hh"

#include "common/logging.hh"

namespace memcon::failure
{

FaultInjector::FaultInjector(const FaultInjectorConfig &config,
                             std::uint64_t num_rows)
    : cfg(config), rows(num_rows)
{
    fatal_if(cfg.transientPerRowPerMs < 0.0,
             "transient rate must be non-negative");
    fatal_if(cfg.transientDoubleBitFraction < 0.0 ||
                 cfg.transientDoubleBitFraction > 1.0,
             "double-bit fraction must lie in [0, 1]");
    fatal_if(cfg.loRefIntervalMs <= 0.0,
             "LO-REF interval must be positive");
}

FaultInjector::RowFaults &
FaultInjector::rowState(RowId row) const
{
    panic_if(row.value() >= rows, "row %llu out of range (%llu rows)",
             static_cast<unsigned long long>(row.value()),
             static_cast<unsigned long long>(rows));
    auto [it, inserted] = transients.try_emplace(row);
    if (inserted)
        it->second.rng.seed(
            hashMix64(cfg.seed ^ (row.value() * 0x9e3779b97f4a7c15ULL)));
    return it->second;
}

void
FaultInjector::advance(RowFaults &state, RowId row,
                       TimeMs now_ms) const
{
    (void)row;
    if (cfg.transientPerRowPerMs <= 0.0)
        return;
    double mean_ms = 1.0 / cfg.transientPerRowPerMs;
    if (!state.started) {
        state.started = true;
        state.nextArrival = TimeMs{state.rng.exponential(mean_ms)};
    }
    while (state.nextArrival <= now_ms) {
        if (budgetSpent < cfg.faultBudget) {
            ++budgetSpent;
            if (state.rng.chance(cfg.transientDoubleBitFraction)) {
                ++state.pendingDouble;
                statGroup.inc("transient.double");
            } else {
                ++state.pendingSingle;
                statGroup.inc("transient.single");
            }
        } else {
            statGroup.inc("budgetDropped");
        }
        state.nextArrival += TimeMs{state.rng.exponential(mean_ms)};
    }
}

bool
FaultInjector::retentionFails(RowId row, TimeMs now_ms,
                              bool &uncorrectable) const
{
    uncorrectable = false;
    if (!vrtPop ||
        cfg.loRefIntervalMs < vrtPop->params().leakyFailIntervalMs)
        return false;
    // Leaky cells grouped per 64-bit word: two distinct cells in one
    // word defeat SECDED. Two population members at one column are one
    // cell, which flips once. `seen` marks the words holding a leaky
    // cell and `column` names that cell (valid only where seen).
    constexpr std::uint64_t kWords = kVrtColumnsPerRow / 64;
    std::uint64_t seen[kWords / 64] = {};
    std::uint8_t column[kWords];
    bool fails = false;
    for (const VrtCell &cell : vrtPop->cellsOfRow(row)) {
        if (!vrtPop->isLeakyAt(cell, now_ms))
            continue;
        fails = true;
        const std::uint64_t word = cell.column / 64;
        const auto bit = static_cast<std::uint8_t>(cell.column % 64);
        const std::uint64_t mask = std::uint64_t{1} << (word % 64);
        if (!(seen[word / 64] & mask)) {
            seen[word / 64] |= mask;
            column[word] = bit;
        } else if (column[word] != bit) {
            uncorrectable = true;
            break;
        }
    }
    return fails;
}

dram::EccStatus
FaultInjector::onRead(RowId row, Tick now, bool lo_ref)
{
    RowFaults &state = rowState(row);
    TimeMs now_ms = ticksToMs(now);
    advance(state, row, now_ms);

    bool retention_uncorrectable = false;
    bool retention = lo_ref && retentionFails(row, now_ms,
                                              retention_uncorrectable);
    const unsigned disturb_single =
        disturbModel ? disturbModel->pendingSingle(row) : 0;
    const unsigned disturb_double =
        disturbModel ? disturbModel->pendingDouble(row) : 0;

    if (state.pendingDouble > 0 || retention_uncorrectable ||
        disturb_double > 0) {
        // The machine-check path retires the page: pending transient
        // and disturb corruption goes with it.
        state.pendingSingle = 0;
        state.pendingDouble = 0;
        if (disturbModel)
            disturbModel->retireFlips(row);
        statGroup.inc("observed.uncorrectable");
        return dram::EccStatus::Uncorrectable;
    }
    if (state.pendingSingle > 0 || retention || disturb_single > 0) {
        statGroup.inc("observed.corrected");
        return dram::EccStatus::CorrectedData;
    }
    return dram::EccStatus::Ok;
}

void
FaultInjector::onRowRestored(RowId row, Tick now)
{
    RowFaults &state = rowState(row);
    advance(state, row, ticksToMs(now));
    if (state.pendingSingle > 0 || state.pendingDouble > 0)
        statGroup.inc("restoredWithPending");
    state.pendingSingle = 0;
    state.pendingDouble = 0;
    if (disturbModel)
        disturbModel->onRowRestored(row, now);
}

bool
FaultInjector::hasLatentFault(RowId row, Tick now,
                              bool lo_ref) const
{
    RowFaults &state = rowState(row);
    TimeMs now_ms = ticksToMs(now);
    advance(state, row, now_ms);
    if (state.pendingSingle > 0 || state.pendingDouble > 0)
        return true;
    if (disturbModel && disturbModel->hasLatentFlip(row))
        return true;
    if (!lo_ref)
        return false;
    bool uncorrectable = false;
    return retentionFails(row, now_ms, uncorrectable);
}

} // namespace memcon::failure
