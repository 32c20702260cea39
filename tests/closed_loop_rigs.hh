/**
 * @file
 * Closed-loop rigs shared by the cycle-domain golden pins
 * (test_golden) and the time-advance differential suite
 * (test_time_advance).
 */

#ifndef MEMCON_TESTS_CLOSED_LOOP_RIGS_HH
#define MEMCON_TESTS_CLOSED_LOOP_RIGS_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/closed_loop.hh"
#include "dram/address_map.hh"
#include "failure/disturb.hh"
#include "failure/injector.hh"
#include "sim/cycle_loop.hh"
#include "trace/hammer.hh"

namespace memcon::rigs
{

/**
 * A 256-row closed loop with a fault injector and a DisturbModel on
 * its ACT chain, resilience and DisturbGuard on: a double-sided
 * attacker in bank 1 plus round-robin benign reads and writes.
 */
struct InjectorDisturbRig
{
    InjectorDisturbRig()
        : timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8,
                                               TimeMs{16.0})),
          map(dram::AddressMap::blocked(3, 5))
    {
        geom.rowsPerBank = 32;
        failure::DisturbParams dp;
        dp.hiWindowMs = 0.1;
        dp.loWindowMs = 0.4;
        dp.medianThreshold = 300;
        dp.minThreshold = 150;
        dp.seed = 0xd15;
        disturb = std::make_unique<failure::DisturbModel>(
            dp, &map, geom.totalRows());
        failure::FaultInjectorConfig inj;
        inj.transientPerRowPerMs = 0.2;
        inj.seed = 0x1faf;
        injector = std::make_unique<failure::FaultInjector>(
            inj, geom.totalRows());
        injector->attachDisturb(disturb.get());

        core::OnlineMemconConfig om;
        om.quantum = usToTicks(20.0);
        om.testIdle = usToTicks(10.0);
        om.retargetPeriod = usToTicks(10.0);
        om.testEngine.slots = 8;
        om.addressMap = map;
        om.resilience.maxCorrectedRetries = 1;
        om.resilience.retestBackoff = usToTicks(20.0);
        om.resilience.fallbackHold = usToTicks(40.0);
        om.resilience.scrubPeriod = usToTicks(25.0);
        om.disturbGuard.enabled = true;
        om.disturbGuard.actAlertThreshold = 160;
        om.disturbGuard.maxVictimRefreshes = 2;
        om.disturbGuard.crossingWindow = usToTicks(60.0);
        om.disturbGuard.bankCrossingLimit = 12;
        om.disturbGuard.bankDegradeHold = usToTicks(30.0);
        loop = std::make_unique<core::ClosedLoop>(geom, timing, om,
                                                  *injector);

        trace::HammerSpec hs;
        hs.kind = trace::HammerKind::DoubleSided;
        hs.bank = 1;
        hs.actsPerUs = 6.0;
        hs.horizonMs = 1.0;
        hs.rowLo = geom.rowsPerBank / 2;
        hs.seed = 0xa66e;
        hammer = std::make_unique<trace::HammerStream>(hs, map,
                                                       geom.totalRows());
    }

    bool
    enqueue(sim::Request::Type type, std::uint64_t row, Tick now)
    {
        sim::Request req;
        req.type = type;
        req.addr = geom.compose(geom.rowFromFlatIndex(RowId{row}));
        return loop->controller().enqueue(std::move(req), now);
    }

    /** Benign traffic: a round-robin read or write every 1.5 us. */
    void
    feedBenign(Tick now)
    {
        if (now < nextBenign)
            return;
        nextBenign += benignPeriod;
        const std::uint64_t bank = benignCursor % 8;
        const std::uint64_t r = (benignCursor / 8) % (geom.rowsPerBank / 2);
        enqueue(benignCursor % 3 == 0 ? sim::Request::Type::Write
                                      : sim::Request::Type::Read,
                map.pageOf(bank, r), now);
        ++benignCursor;
    }

    /**
     * The attacker's due accesses and the benign traffic, as demand
     * requests; a full queue drops what it refuses. Nothing happens
     * between due times, so the driver sleeps until the next one.
     */
    sim::CycleDriver
    driver()
    {
        sim::CycleDriver d;
        d.beforeTick = [this](Tick now) {
            Tick at{};
            std::uint64_t row = 0;
            while (hammer->peek(&at, &row) && at <= now) {
                hammer->pop();
                enqueue(sim::Request::Type::Read, row, now);
            }
            feedBenign(now);
        };
        d.nextEventTick = [this](Tick) {
            Tick at{};
            std::uint64_t row = 0;
            return std::min(hammer->peek(&at, &row) ? at : kTickNever,
                            nextBenign);
        };
        return d;
    }

    /**
     * The attacker as the disturb benches drive it: a refused access
     * is held and retried every cycle, so the driver acts every
     * cycle.
     */
    sim::CycleDriver
    holdingDriver()
    {
        sim::CycleDriver d;
        d.beforeTick = [this](Tick now) {
            Tick at{};
            std::uint64_t row = 0;
            while (true) {
                if (!held) {
                    if (!hammer->peek(&at, &row) || at > now)
                        break;
                    hammer->pop();
                    heldRow = row;
                    held = true;
                }
                if (!enqueue(sim::Request::Type::Read, heldRow, now))
                    break;
                held = false;
            }
            feedBenign(now);
        };
        return d;
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    dram::AddressMap map;
    std::unique_ptr<failure::DisturbModel> disturb;
    std::unique_ptr<failure::FaultInjector> injector;
    std::unique_ptr<core::ClosedLoop> loop;
    std::unique_ptr<trace::HammerStream> hammer;
    const Tick benignPeriod = usToTicks(1.5);
    Tick nextBenign = usToTicks(1.5);
    std::uint64_t benignCursor = 0;
    bool held = false;
    std::uint64_t heldRow = 0;
};

} // namespace memcon::rigs

#endif // MEMCON_TESTS_CLOSED_LOOP_RIGS_HH
