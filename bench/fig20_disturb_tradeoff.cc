/**
 * @file
 * Cost-benefit sweep of the read-disturb mitigation (extension figure,
 * companion to the abl_disturb_loref ablation).
 *
 * The guard's one first-order knob is the aggressor alert threshold:
 * how many ACTs an aggressor may issue before its neighbors are
 * refreshed out of band. Lower is safer and more expensive - every
 * crossing spends victim-refresh request slots and, for chronic
 * aggressors, demotes victims back to HI-REF, eating into the refresh
 * reduction MEMCON exists to deliver. This sweep runs a double-sided
 * attacker against the closed loop across alert thresholds from "off"
 * down to a quarter of the weakest row's flip threshold and reports
 * both sides of the trade: residual victim flips on one axis, victim
 * refreshes + test traffic + retained refresh reduction on the other.
 *
 * Deterministic for any --threads; smoke-tested via --quick.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "disturb_loop.hh"
#include "runner.hh"
#include "trace/hammer.hh"

using namespace memcon;

namespace
{

bench::Metrics
runOne(std::uint64_t alert, std::uint64_t seed, bool quick)
{
    // The double-sided arm of abl_disturb_loref, guard alert swept.
    return bench::runDisturbLoop(
        trace::HammerKind::DoubleSided, true, alert, seed, quick,
        {"flips", "victim_refreshes", "tests", "crossings",
         "bank_degrades", "pinned", "lo_fraction", "reduction"});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("Fig 20 (extension): disturb mitigation trade-off",
                  "residual victim flips vs. victim-refresh cost "
                  "across guard alert thresholds");
    note("Double-sided attacker at 10 ACTs/us on bank 0's cold band "
         "of a 512-row module. Alert 0 = guard off (the unmitigated "
         "mechanism); "
         "lower thresholds refresh victims earlier, spending request "
         "slots and refresh reduction for fewer flips.");

    const std::vector<std::uint64_t> alerts = {0, 2048, 512, 128};
    bench::SweepRunner runner("fig20_disturb_tradeoff", opts);
    // One world seed across the sweep: every alert threshold faces
    // the same attacker, thresholds, and benign stream, so the curve
    // isolates the knob.
    const std::uint64_t world = deriveTaskSeed(opts.campaignSeed, 2000);
    for (std::uint64_t alert : alerts) {
        runner.add(alert == 0 ? std::string("off")
                              : strprintf("alert%llu",
                                          (unsigned long long)alert),
                   [alert, world](const bench::TaskContext &ctx) {
                       return runOne(alert, world, ctx.quick);
                   });
    }
    runner.run();

    TextTable t;
    t.header({"alert ACTs", "flips", "victim refr", "crossings",
              "tests", "bank degr", "pinned", "LO-REF", "reduction"});
    std::size_t idx = 0;
    for (std::uint64_t alert : alerts) {
        const bench::PointResult &o = runner.results()[idx++];
        t.row({alert == 0 ? "off" : TextTable::num((double)alert, 0),
               TextTable::num(o.metric("flips"), 0),
               TextTable::num(o.metric("victim_refreshes"), 0),
               TextTable::num(o.metric("crossings"), 0),
               TextTable::num(o.metric("tests"), 0),
               TextTable::num(o.metric("bank_degrades"), 0),
               TextTable::num(o.metric("pinned"), 0),
               TextTable::pct(o.metric("lo_fraction"), 1),
               TextTable::pct(o.metric("reduction"), 1)});
    }
    std::printf("%s", t.render().c_str());
    note("The knee is where victim refreshes stop buying flips: past "
         "it the guard only taxes the reduction.");
    runner.finish();
    return 0;
}
