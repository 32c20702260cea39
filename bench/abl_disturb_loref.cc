/**
 * @file
 * Ablation: does LO-REF demotion open a RowHammer window, and does
 * scrub-wheel victim refresh close it - at what test-overhead cost?
 *
 * MEMCON's demotion policy quadruples a row's refresh interval after a
 * content test passes; a disturbance-accumulation model (DiscoRD-style
 * per-row thresholds, Blacksmith-style aggressor personas) says that
 * also quadruples the ACT count a victim accumulates between resets.
 * Three arms per persona:
 *
 *  - all-HI: loRefEnabled=false. Tests run and are paid for, but no
 *    row ever relaxes its refresh. The victim-flip floor.
 *  - LO-REF: the paper's mechanism, disturb guard off. Victims of the
 *    aggressor sit at LO-REF with a 4x accumulation window - the
 *    unmitigated coupling this ablation exists to demonstrate.
 *  - LO+guard: the mitigation arm. The controller's ACT stream feeds
 *    DisturbGuard; aggressors crossing the alert threshold get their
 *    neighbors refreshed through the request machinery, chronic
 *    victims enter the demote/backoff/pin ladder, and a bank under
 *    sustained hammering degrades to HI-REF until pressure stops.
 *
 * The aggressor co-runs with benign demand traffic; flips are scored
 * from the model's ground truth (flips recorded) and from what demand
 * reads actually surfaced (SECDED corrected/uncorrectable). The
 * mitigation's price is reported as victim refreshes plus extra test
 * traffic. In full (non-quick) mode the bench fatals unless the
 * acceptance ordering holds: LO-REF flips strictly above the all-HI
 * floor, and the guard back within the configured band of it.
 *
 * Every number is bit-identical for any --threads; the CI disturb job
 * runs this at 1 and 8 threads and compares digests.
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

enum class Arm
{
    AllHi,   //!< loRefEnabled=false: the victim-flip floor
    LoRef,   //!< the paper's mechanism, guard off (unmitigated)
    LoGuard, //!< mechanism + victim refresh + degradation ladder
};

const char *
armName(Arm arm)
{
    switch (arm) {
    case Arm::AllHi:
        return "all-HI";
    case Arm::LoRef:
        return "LO-REF";
    case Arm::LoGuard:
        return "LO+guard";
    }
    return "?";
}

bench::Metrics
runOne(trace::HammerKind kind, Arm arm, std::uint64_t seed, bool quick)
{
    // The guard alerts well under the weakest row's threshold: a
    // victim accumulates at most ~2 aggressors x 256 ACTs between
    // refreshes, under every persona's floor.
    return bench::runDisturbLoop(
        kind, arm != Arm::AllHi, arm == Arm::LoGuard ? 256 : 0, seed, quick,
        {"flips", "flips_single", "flips_double", "corrected",
         "uncorrectable", "victim_refreshes", "tests", "bank_degrades",
         "pinned", "lo_fraction", "reduction", "avg_latent_lo_rows",
         "peak_latent_lo_rows"});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("Ablation: LO-REF demotion vs. read disturb",
                  "victim flips under aggressor personas, with and "
                  "without scrub-wheel victim refresh");
    note("512-row module, one aggressor persona hammering bank 0's "
         "cold band at 10-12 accesses/us beside benign demand "
         "traffic. Disturb windows compressed to 0.25/1.0 ms (HI/LO, "
         "the real 4x ratio); per-row log-normal thresholds scaled so "
         "each persona's floor splits its HI/LO accumulations.");

    const std::vector<trace::HammerKind> kinds = trace::allHammerKinds();
    const std::vector<Arm> arms = {Arm::AllHi, Arm::LoRef,
                                   Arm::LoGuard};
    bench::SweepRunner runner("abl_disturb_loref", opts);
    std::size_t kind_index = 0;
    for (trace::HammerKind kind : kinds) {
        // All three arms of a persona share one world seed: same
        // aggressor pattern, same per-row thresholds, same benign
        // stream. The only difference between arms is policy, so the
        // flip ordering is a genuine ablation, not seed noise.
        const std::uint64_t world =
            deriveTaskSeed(opts.campaignSeed, 1000 + kind_index++);
        for (Arm arm : arms) {
            runner.add(strprintf("%s/%s", trace::hammerKindName(kind),
                                 armName(arm)),
                       [kind, arm, world](const bench::TaskContext &ctx) {
                           return runOne(kind, arm, world, ctx.quick);
                       });
        }
    }
    runner.run();

    TextTable t;
    t.header({"persona", "arm", "flips", "1b/2b", "ECC c/u",
              "victim refr", "tests", "bank degr", "LO-REF",
              "reduction", "latent LO (avg/peak)"});
    std::size_t idx = 0;
    for (trace::HammerKind kind : kinds) {
        for (Arm arm : arms) {
            const bench::PointResult &o = runner.results()[idx++];
            t.row({trace::hammerKindName(kind), armName(arm),
                   TextTable::num(o.metric("flips"), 0),
                   TextTable::num(o.metric("flips_single"), 0) + "/" +
                       TextTable::num(o.metric("flips_double"), 0),
                   TextTable::num(o.metric("corrected"), 0) + "/" +
                       TextTable::num(o.metric("uncorrectable"), 0),
                   TextTable::num(o.metric("victim_refreshes"), 0),
                   TextTable::num(o.metric("tests"), 0),
                   TextTable::num(o.metric("bank_degrades"), 0),
                   TextTable::pct(o.metric("lo_fraction"), 1),
                   TextTable::pct(o.metric("reduction"), 1),
                   TextTable::num(o.metric("avg_latent_lo_rows"), 2) +
                       " / " +
                       TextTable::num(o.metric("peak_latent_lo_rows"),
                                      0)});
        }
    }
    std::printf("%s", t.render().c_str());

    // The acceptance ordering, checked per persona on the full run
    // (the quick horizon is too short for clean separation): LO-REF
    // must raise flips above the all-HI floor, and the guard must pull
    // them back to within the floor plus a small band while still
    // paying victim refreshes for it.
    if (!opts.quick) {
        idx = 0;
        for (trace::HammerKind kind : kinds) {
            const double hi =
                runner.results()[idx + 0].metric("flips");
            const double lo =
                runner.results()[idx + 1].metric("flips");
            const double guarded =
                runner.results()[idx + 2].metric("flips");
            const double refreshes =
                runner.results()[idx + 2].metric("victim_refreshes");
            idx += 3;
            fatal_if(lo <= hi,
                     "%s: LO-REF arm did not raise flips (%g vs %g)",
                     trace::hammerKindName(kind), lo, hi);
            fatal_if(guarded > hi + 0.25 * (lo - hi),
                     "%s: guard left flips at %g (floor %g, "
                     "unmitigated %g)",
                     trace::hammerKindName(kind), guarded, hi, lo);
            fatal_if(refreshes == 0.0,
                     "%s: guard arm issued no victim refreshes",
                     trace::hammerKindName(kind));
            const double overhead =
                runner.results()[idx - 1].metric("tests") +
                refreshes -
                runner.results()[idx - 2].metric("tests");
            note(strprintf("%s: flips %g -> %g (floor %g), mitigation "
                           "overhead %+g test-slot ops",
                           trace::hammerKindName(kind), lo, guarded, hi,
                           overhead));
        }
        note("acceptance ordering verified: LO-REF raises flips, "
             "victim refresh restores the floor band");
    }
    runner.finish();
    return 0;
}
