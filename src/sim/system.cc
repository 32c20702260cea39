#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/cycle_loop.hh"

namespace memcon::sim
{

TestTrafficSource::TestTrafficSource(const dram::Geometry &geometry,
                                     MemoryController &controller,
                                     unsigned tests_per_window,
                                     bool copy_mode, std::uint64_t seed)
    : geom(geometry), mc(controller), copyMode(copy_mode),
      rng(hashMix64(seed ^ 0x7e57))
{
    fatal_if(tests_per_window == 0, "tests per window must be positive");
    interTestGap = msToTicks(64.0) / tests_per_window;
    nextTestAt = interTestGap;
}

void
TestTrafficSource::startTest()
{
    // Pick a random row; stream it block-aligned.
    std::uint64_t row_index = rng.uniformInt(geom.totalRows());
    dram::Coordinates c = geom.rowFromFlatIndex(RowId{row_index});
    c.column = 0;
    currentRowBase = geom.compose(c);
    // Two full read passes (before/after the idle period) plus, in
    // Copy&Compare mode, one full write pass into the reserved
    // region (modelled as the same bandwidth cost).
    readsLeft = 2 * geom.columnsPerRow;
    writesLeft = copyMode ? geom.columnsPerRow : 0;
    nextColumn = 0;
    ++started;
}

void
TestTrafficSource::tick(Tick now)
{
    if (readsLeft == 0 && writesLeft == 0) {
        if (now < nextTestAt)
            return;
        startTest();
        nextTestAt += interTestGap;
    }

    // Feed the controller as fast as it accepts, one request per
    // tick, staying behind demand traffic via the isTest flag.
    Request req;
    req.isTest = true;
    req.coreId = -1;
    std::uint64_t col = nextColumn % geom.columnsPerRow;
    req.addr = currentRowBase + col * geom.blockBytes;
    if (readsLeft > 0) {
        req.type = Request::Type::Read;
        if (mc.enqueue(std::move(req), now)) {
            --readsLeft;
            ++nextColumn;
        }
    } else if (writesLeft > 0) {
        req.type = Request::Type::Write;
        if (mc.enqueue(std::move(req), now)) {
            --writesLeft;
            ++nextColumn;
        }
    }
}

double
RunResult::ipcSum() const
{
    double sum = 0.0;
    for (double v : ipc)
        sum += v;
    return sum;
}

System::System(const SystemConfig &config,
               const std::vector<trace::CpuPersona> &mix)
    : cfg(config),
      timing(dram::TimingParams::ddr3_1600(config.density,
                                           config.refreshInterval))
{
    fatal_if(mix.size() != cfg.cores,
             "mix has %zu personas for %u cores", mix.size(), cfg.cores);
    cfg.geometry.validate();

    ControllerConfig mc_cfg;
    mc_cfg.refreshReduction = cfg.refreshReduction;
    mc_cfg.refreshEnabled = cfg.refreshEnabled;
    mc = std::make_unique<MemoryController>(cfg.geometry, timing, mc_cfg);

    std::uint64_t total_blocks = cfg.geometry.totalBlocks();
    for (unsigned i = 0; i < cfg.cores; ++i) {
        // Spread core footprints across the module.
        std::uint64_t base =
            (total_blocks / cfg.cores) * i + hashMix64(cfg.seed + i) % 1024;
        trace::CpuAccessStream stream(mix[i],
                                      cfg.seed * 131 + i);
        cores.push_back(std::make_unique<SimpleCore>(
            static_cast<int>(i), std::move(stream), *mc, base,
            total_blocks, cfg.issueWidth, cfg.windowSize));
    }

    if (cfg.concurrentTests > 0) {
        testSource = std::make_unique<TestTrafficSource>(
            cfg.geometry, *mc, cfg.concurrentTests, cfg.copyMode,
            cfg.seed);
    }

    double bus_ghz = 1.0 / (ticksToNs(timing.tCk));
    cpuCyclesPerDramTick = static_cast<unsigned>(
        cfg.cpuGHz / bus_ghz + 0.5);
    fatal_if(cpuCyclesPerDramTick == 0,
             "CPU must be at least as fast as the DRAM bus");
}

RunResult
System::run(InstCount insts_per_core, Tick max_ticks)
{
    RunResult result;
    result.ipc.assign(cfg.cores, 0.0);
    std::vector<bool> finished(cfg.cores, false);
    unsigned finished_count = 0;

    // The cores act every cycle; the controller ticks ahead of them.
    std::uint64_t dram_cycle = 0;
    CycleDriver driver;
    driver.afterTick = [&](Tick now) {
        ++dram_cycle;
        if (testSource)
            testSource->tick(now);
        // Rotate the service order so no core systematically wins
        // the race for freed controller-queue slots.
        for (unsigned k = 0; k < cfg.cores; ++k) {
            unsigned i =
                static_cast<unsigned>((dram_cycle + k) % cfg.cores);
            for (unsigned c = 0; c < cpuCyclesPerDramTick; ++c)
                cores[i]->tick(now);
            if (!finished[i] &&
                cores[i]->retiredInsts() >= insts_per_core) {
                finished[i] = true;
                ++finished_count;
                result.ipc[i] = cores[i]->ipc();
            }
        }
        return finished_count < cfg.cores;
    };
    const Tick now = cfg.cores == 0
                         ? Tick{}
                         : runCycles(*mc, driver, Tick{}, max_ticks,
                                     timing.tCk);

    if (finished_count < cfg.cores) {
        warn("run hit the tick cap before all cores finished");
        for (unsigned i = 0; i < cfg.cores; ++i)
            if (!finished[i])
                result.ipc[i] = cores[i]->ipc();
    }

    result.totalTicks = now;
    for (unsigned i = 0; i < cfg.cores; ++i)
        result.retired.push_back(cores[i]->retiredInsts());
    result.refreshCount =
        static_cast<std::uint64_t>(mc->stats().value("refresh"));
    result.testsStarted = testSource ? testSource->testsStarted() : 0;
    return result;
}

} // namespace memcon::sim
