/**
 * @file
 * Workload `detect`: the Figure 4 methodology. A FailureModel is
 * tested with DramTester::testWithContent (sparse, per cell) and
 * testWithContentBlock (bit-parallel, through the dispatched
 * kernels) over one content epoch of each SPEC ContentPersona, plus
 * one exhaustivePhysicalTest ("ALL FAIL").
 *
 * The module is fixed (the device under test); the seed picks each
 * persona's content epoch. The model has no redundant columns, so
 * the sparse and block paths must agree row for row - the
 * correctness gate. An epoch is one content snapshot tested both
 * ways.
 */

#include <memory>

#include "bench.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/tester.hh"

namespace perfbench
{

namespace
{

using namespace memcon;

constexpr double kIntervalMs = 328.0; // 4 s at 45 C, as in Section 5

class Detect : public Workload
{
  public:
    explicit Detect(const Options &o) : opts(o) {}

    void
    setup() override
    {
        const double t0 = hostNow();
        model = buildModel();
        for (std::uint64_t r = 0; r < model->numRows(); ++r)
            model->cellsOfRow(RowId{r});
        buildTimes.push_back(hostNow() - t0);
        tester = std::make_unique<failure::DramTester>(*model);

        contents.clear();
        std::vector<failure::ContentPersona> suite =
            failure::ContentPersona::specSuite();
        if (opts.tiny)
            suite.resize(4);
        for (std::size_t i = 0; i < suite.size(); ++i)
            contents.emplace_back(suite[i],
                                  hashMix64(opts.seed ^ (i + 1)) % 5);
    }

    void
    release() override
    {
        tester.reset(); // holds a reference into the model
        model.reset();
    }

    PassResult
    runPass(Tracer *tr) override
    {
        const int sparse_k = tr ? tr->kind("failure.tester.sparse") : -1;
        const int block_k = tr ? tr->kind("failure.tester.block") : -1;
        const int exh_k = tr ? tr->kind("failure.tester.exhaustive") : -1;

        PassResult out;
        Digest digest;
        const double rows = static_cast<double>(model->numRows());
        std::uint64_t failing_block = 0, failing_all = 0, bits = 0;
        for (const failure::ProgramContent &c : contents) {
            const double t0 = hostNow();
            failure::TestResult sparse, block;
            {
                Span s(tr, sparse_k);
                sparse = tester->testWithContent(c, kIntervalMs);
            }
            {
                Span s(tr, block_k);
                block = tester->testWithContentBlock(c, kIntervalMs);
            }
            const double dt = hostNow() - t0;
            out.seconds += dt;
            out.epochsS.push_back(dt);

            if (sparse.rowsFailing != block.rowsFailing)
                violations.push_back(c.name() + ": sparse and block "
                                                "rowsFailing disagree");
            digest.add(c.name() + ".sparse", sparse.rowsFailing);
            digest.add(c.name() + ".cells", sparse.failures.size());
            digest.add(c.name() + ".block", block.rowsFailing);
            digest.add(c.name() + ".bits", block.failingBits);
            failing_block += block.rowsFailing;
            failing_all += sparse.rowsFailing + block.rowsFailing;
            bits += block.failingBits;
        }
        const double t0 = hostNow();
        failure::TestResult all;
        {
            Span s(tr, exh_k);
            all = tester->exhaustivePhysicalTest(kIntervalMs);
        }
        out.seconds += hostNow() - t0;
        digest.add("allfail", all.rowsFailing);
        failing_all += all.rowsFailing;
        out.digest = digest.hex();

        const double n = static_cast<double>(contents.size());
        out.work["rows_per_s"] = (2.0 * n + 1.0) * rows;
        out.work["replay_events_per_s"] = 2.0 * n * rows;
        out.work["applied_events_per_s"] = n;
        out.work["sim_us_per_s"] = 2.0 * n * kIntervalMs * 1e3;
        const double fail_share =
            static_cast<double>(failing_block) / (n * rows);
        const core::MemconConfig mc;
        out.outcomes["refresh_reduction"] =
            (1.0 - mc.hiRefMs / mc.loRefMs) * (1.0 - fail_share);
        out.outcomes["drop_frac"] = fail_share;

        if (tr) {
            out.layers["failure.tester.sparse_s"] =
                tr->selfS("failure.tester.sparse");
            out.layers["failure.tester.block_s"] =
                tr->selfS("failure.tester.block");
            out.layers["failure.tester.exhaustive_s"] =
                tr->selfS("failure.tester.exhaustive");
            out.layers["failure.tester.rows"] = (2.0 * n + 1.0) * rows;
            out.layers["failure.tester.rows_failing"] =
                static_cast<double>(failing_all);
            out.layers["failure.tester.failing_bits"] =
                static_cast<double>(bits);
            // Expected plus read-back words of every block row.
            const double words =
                static_cast<double>((model->cellsPerRow() + 63) / 64);
            out.layers["common.simd.bytes_compared"] =
                n * rows * words * 8.0 * 2.0;
        }
        return out;
    }

    double
    restartS() override
    {
        // A fresh module to the result of one reference snapshot; the
        // seed-chosen snapshots differ too much in cost to stand in.
        const failure::ProgramContent reference(
            failure::ContentPersona::byName("gcc"), 0);
        const double t0 = hostNow();
        std::unique_ptr<failure::FailureModel> m = buildModel();
        failure::DramTester t(*m);
        t.testWithContent(reference, kIntervalMs);
        t.testWithContentBlock(reference, kIntervalMs);
        return hostNow() - t0;
    }

    std::map<std::string, double>
    extraLayers() override
    {
        return {{"failure.model_build_s", median(buildTimes)}};
    }

  private:
    std::unique_ptr<failure::FailureModel>
    buildModel() const
    {
        failure::FailureModelParams fm;
        fm.nominalIntervalMs = kIntervalMs;
        fm.seed = 2017; // the module under test, as in fig04
        fm.redundantColumns = 0;
        fm.remappedColumns = 0;
        return std::make_unique<failure::FailureModel>(
            fm, opts.tiny ? 256 : 1024, 1 << 16);
    }

    Options opts;
    std::unique_ptr<failure::FailureModel> model;
    std::unique_ptr<failure::DramTester> tester;
    std::vector<failure::ProgramContent> contents;
    std::vector<double> buildTimes;
};

} // namespace

std::unique_ptr<Workload>
makeDetect(const Options &opts)
{
    return std::make_unique<Detect>(opts);
}

} // namespace perfbench
