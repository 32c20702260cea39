#include "core/resilience.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ordered.hh"
#include "common/random.hh"
#include "common/state_io.hh"

namespace memcon::core
{

ResilienceManager::ResilienceManager(const ResilienceConfig &config,
                                     std::uint64_t num_rows,
                                     StatGroup &stat_group)
    : cfg(config), rows(num_rows), stats(stat_group),
      pinned(num_rows), nextScrub(config.scrubPeriod)
{
    fatal_if(cfg.retestBackoff == Tick{}, "retest backoff must be positive");
}

ResilienceManager::EccAction
ResilienceManager::onEccEvent(RowId row,
                              dram::EccStatus status, bool lo_ref,
                              Tick now)
{
    panic_if(row.value() >= rows, "row %llu out of range",
             static_cast<unsigned long long>(row.value()));
    switch (status) {
    case dram::EccStatus::Ok:
        return EccAction::None;
    case dram::EccStatus::Uncorrectable:
        stats.inc("ecc.uncorrectable");
        if (!cfg.enabled)
            return EccAction::None;
        // The page behind this row is gone; never trust it at LO-REF
        // again, and stop trusting every other LO verdict too.
        if (!pinned.test(row.value())) {
            pinned.set(row.value());
            stats.inc("pinned");
        }
        return EccAction::Fallback;
    case dram::EccStatus::CorrectedData:
    case dram::EccStatus::CorrectedCheck:
        stats.inc("ecc.corrected");
        if (!cfg.enabled || !lo_ref || pinned.test(row.value()))
            return EccAction::None;
        return ladderStep(row, now);
    }
    return EccAction::None;
}

ResilienceManager::EccAction
ResilienceManager::ladderStep(RowId row, Tick now)
{
    unsigned episodes = ++correctedEpisodes[row];
    if (episodes > cfg.maxCorrectedRetries) {
        pinned.set(row.value());
        stats.inc("pinned");
        return EccAction::DemoteAndPin;
    }
    // Exponential backoff: a row that keeps producing corrected
    // errors is re-tested less and less eagerly.
    Tick backoff{cfg.retestBackoff.value() << (episodes - 1)};
    retestQueue.emplace(now + backoff, row);
    stats.inc("retest.scheduled");
    return EccAction::DemoteAndRetest;
}

ResilienceManager::EccAction
ResilienceManager::onDisturbEscalation(RowId row, bool lo_ref, Tick now)
{
    panic_if(row.value() >= rows, "row %llu out of range",
             static_cast<unsigned long long>(row.value()));
    stats.inc("disturb.escalations");
    if (!cfg.enabled || !lo_ref || pinned.test(row.value()))
        return EccAction::None;
    return ladderStep(row, now);
}

std::vector<RowId>
ResilienceManager::dueRetests(Tick now)
{
    std::vector<RowId> due;
    auto end = retestQueue.upper_bound(now);
    for (auto it = retestQueue.begin(); it != end; ++it)
        due.push_back(it->second);
    retestQueue.erase(retestQueue.begin(), end);
    return due;
}

Tick
ResilienceManager::nextRetestTick() const
{
    return retestQueue.empty() ? kTickNever : retestQueue.begin()->first;
}

bool
ResilienceManager::armFallback(Tick now)
{
    fallbackUntil = now + cfg.fallbackHold;
    if (fallback)
        return false;
    fallback = true;
    stats.inc("fallback.entries");
    return true;
}

bool
ResilienceManager::fallbackExpired(Tick now) const
{
    return fallback && now >= fallbackUntil;
}

Tick
ResilienceManager::fallbackEndTick() const
{
    return fallback ? fallbackUntil : kTickNever;
}

void
ResilienceManager::exitFallback()
{
    panic_if(!fallback, "exitFallback outside fallback");
    fallback = false;
    stats.inc("fallback.exits");
}

bool
ResilienceManager::scrubDue(Tick now) const
{
    return cfg.enabled && cfg.scrubPeriod > Tick{} && now >= nextScrub;
}

Tick
ResilienceManager::nextScrubTick() const
{
    return cfg.enabled && cfg.scrubPeriod > Tick{} ? nextScrub : kTickNever;
}

std::vector<RowId>
ResilienceManager::nextScrubRows(
    Tick now, const BitVector &lo_rows,
    const std::function<bool(RowId)> &skip)
{
    nextScrub = now + cfg.scrubPeriod;
    std::vector<RowId> picked;
    // One full lap from the cursor at most: the sweep must terminate
    // even when fewer LO rows exist than the batch wants.
    for (std::uint64_t step = 0;
         step < rows && picked.size() < cfg.scrubRowsPerSweep; ++step) {
        std::uint64_t row = scrubCursor;
        scrubCursor = (scrubCursor + 1) % rows;
        if (!lo_rows.test(row) || (skip && skip(RowId{row})))
            continue;
        picked.push_back(RowId{row});
    }
    stats.inc("scrub.scheduled", picked.size());
    return picked;
}

DisturbGuard::DisturbGuard(const DisturbGuardConfig &config,
                           const dram::AddressMap *map,
                           std::uint64_t num_rows, StatGroup &stat_group)
    : cfg(config), addressMap(map), rows(num_rows), stats(stat_group),
      banks(map ? map->numShards() : 1)
{
    fatal_if(addressMap == nullptr, "disturb guard needs an address map");
    if (!cfg.enabled)
        return;
    fatal_if(cfg.actAlertThreshold == 0,
             "ACT alert threshold must be positive");
    fatal_if(cfg.victimRadius == 0, "victim radius must be positive");
    fatal_if(cfg.maxVictimRefreshes == 0,
             "victim refresh limit must be positive");
    fatal_if(cfg.bankCrossingLimit == 0,
             "bank crossing limit must be positive");
    fatal_if(cfg.crossingWindow == Tick{},
             "crossing window must be positive");
    fatal_if(cfg.bankDegradeHold == Tick{},
             "bank degrade hold must be positive");
}

std::optional<DisturbGuard::Crossing>
DisturbGuard::onActivate(RowId row, Tick now)
{
    if (!cfg.enabled)
        return std::nullopt;
    panic_if(row.value() >= rows, "row %llu out of range",
             static_cast<unsigned long long>(row.value()));
    std::uint64_t &acts = aggressorActs[row];
    if (++acts < cfg.actAlertThreshold)
        return std::nullopt;
    acts = 0;
    ++crossingCount;
    stats.inc("disturb.crossings");

    Crossing crossing;
    crossing.aggressor = row;
    crossing.bank = addressMap->shardOf(row.value());
    for (unsigned dist = 1; dist <= cfg.victimRadius; ++dist) {
        for (int sign : {-1, 1}) {
            auto victim = addressMap->rowNeighbor(
                row.value(), sign * static_cast<int>(dist), rows);
            if (!victim)
                continue;
            crossing.victims.push_back(RowId{*victim});
            unsigned episodes = ++victimEpisodes[RowId{*victim}];
            if (episodes % cfg.maxVictimRefreshes == 0)
                crossing.escalations.push_back(RowId{*victim});
        }
    }

    BankState &bank = banks[crossing.bank];
    if (now - bank.windowStart >= cfg.crossingWindow) {
        bank.windowStart = now;
        bank.crossingsInWindow = 0;
    }
    ++bank.crossingsInWindow;
    if (bank.degraded) {
        // Hysteresis: hammering a degraded bank keeps it degraded.
        bank.degradedUntil = now + cfg.bankDegradeHold;
    } else if (bank.crossingsInWindow >= cfg.bankCrossingLimit) {
        bank.degraded = true;
        bank.degradedUntil = now + cfg.bankDegradeHold;
        crossing.bankDegraded = true;
        ++degradedCount;
        stats.inc("disturb.bankDegrades");
    }
    return crossing;
}

bool
DisturbGuard::bankDegraded(RowId row, Tick now) const
{
    const BankState &bank = banks[addressMap->shardOf(row.value())];
    return bank.degraded && now < bank.degradedUntil;
}

std::vector<std::uint64_t>
DisturbGuard::recoveredBanks(Tick now)
{
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < banks.size(); ++i) {
        BankState &bank = banks[i];
        if (bank.degraded && now >= bank.degradedUntil) {
            bank.degraded = false;
            --degradedCount;
            stats.inc("disturb.bankRecoveries");
            out.push_back(i);
        }
    }
    return out;
}

Tick
DisturbGuard::nextRecoveryTick() const
{
    Tick next = kTickNever;
    if (degradedCount == 0)
        return next;
    for (const BankState &bank : banks)
        if (bank.degraded)
            next = std::min(next, bank.degradedUntil);
    return next;
}

std::uint64_t
DisturbGuard::fingerprint() const
{
    // Hash maps in key order so the digest is iteration-order free.
    std::uint64_t fp = hashMix64(crossingCount);
    for (const auto &[row, acts] : ordered::sortedItems(aggressorActs))
        fp = hashMix64(fp ^ hashMix64(row.value() * 2 + 1) ^ acts);
    for (const auto &[row, episodes] : ordered::sortedItems(victimEpisodes))
        fp = hashMix64(fp ^ hashMix64(row.value() * 2) ^ episodes);
    for (const BankState &bank : banks) {
        fp = hashMix64(fp ^ bank.crossingsInWindow ^
                       (bank.degraded ? bank.degradedUntil.value() : 0));
    }
    return fp;
}

namespace
{

/** A row-keyed counter map as ascending (row, count) pairs. */
template <typename Count>
std::vector<std::uint64_t>
rowCounts(const std::unordered_map<RowId, Count> &counts)
{
    std::vector<std::uint64_t> out;
    for (const auto &[row, n] : ordered::sortedItems(counts))
        out.insert(out.end(), {row.value(), std::uint64_t{n}});
    return out;
}

template <typename Count>
void
loadRowCounts(StateReader &in, const char *key, std::uint64_t rows,
              std::uint64_t limit, std::unordered_map<RowId, Count> &out)
{
    const std::vector<std::uint64_t> v = in.tuples(key, 2);
    out.clear();
    for (std::size_t i = 0; i < v.size(); i += 2) {
        in.check(v[i] < rows && v[i + 1] < limit &&
                     (i == 0 || v[i - 2] < v[i]),
                 std::string("'") + key + "' holds a bad row count");
        out.emplace(RowId{v[i]}, static_cast<Count>(v[i + 1]));
    }
}

} // namespace

void
ResilienceManager::saveState(StateWriter &out) const
{
    out.line("res");
    out.tuples("episodes", rowCounts(correctedEpisodes), 2);
    out.bits("pinned", pinned);
    std::vector<std::uint64_t> retests;
    for (const auto &[at, row] : retestQueue)
        retests.insert(retests.end(), {at.value(), row.value()});
    out.tuples("retest", retests, 2);
    out.flag("fallback", fallback);
    out.tick("until", fallbackUntil);
    out.tick("scrub", nextScrub);
    out.u64("cursor", scrubCursor);
}

void
ResilienceManager::loadState(StateReader &in)
{
    in.line("res");
    loadRowCounts(in, "episodes", rows, 1ull << 32, correctedEpisodes);
    in.bits("pinned", pinned);
    const std::vector<std::uint64_t> retests = in.tuples("retest", 2);
    retestQueue.clear();
    for (std::size_t i = 0; i < retests.size(); i += 2) {
        in.check(retests[i + 1] < rows &&
                     (i == 0 || retests[i - 2] <= retests[i]),
                 "holds a bad re-test entry");
        // Equal ticks keep their saved (insertion) order.
        retestQueue.emplace_hint(retestQueue.end(), Tick{retests[i]},
                                 RowId{retests[i + 1]});
    }
    fallback = in.flag("fallback");
    fallbackUntil = in.tick("until");
    nextScrub = in.tick("scrub");
    scrubCursor = in.u64("cursor", rows);
}

void
DisturbGuard::saveState(StateWriter &out) const
{
    out.line("guard");
    out.u64("crossings", crossingCount);
    out.tuples("acts", rowCounts(aggressorActs), 2);
    out.tuples("victims", rowCounts(victimEpisodes), 2);
    std::vector<std::uint64_t> states;
    for (const BankState &bank : banks)
        states.insert(states.end(),
                      {bank.crossingsInWindow, bank.windowStart.value(),
                       bank.degraded ? 1u : 0u, bank.degradedUntil.value()});
    out.tuples("banks", states, 4);
}

void
DisturbGuard::loadState(StateReader &in)
{
    in.line("guard");
    crossingCount = in.u64("crossings");
    loadRowCounts(in, "acts", rows, ~0ull, aggressorActs);
    loadRowCounts(in, "victims", rows, 1ull << 32, victimEpisodes);
    const std::vector<std::uint64_t> states = in.tuples("banks", 4);
    in.check(states.size() == banks.size() * 4,
             "does not hold one state per bank");
    degradedCount = 0;
    for (std::size_t i = 0; i < banks.size(); ++i) {
        const std::uint64_t *v = &states[i * 4];
        in.check(v[2] <= 1, "holds a bad bank degradation flag");
        banks[i].crossingsInWindow = v[0];
        banks[i].windowStart = Tick{v[1]};
        banks[i].degraded = v[2] != 0;
        banks[i].degradedUntil = Tick{v[3]};
        degradedCount += v[2];
    }
}

} // namespace memcon::core
