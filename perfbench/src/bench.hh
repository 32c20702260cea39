/**
 * @file
 * Shared machinery of the repo benchmark: the host clock, the span
 * tracer that attributes host time to layers from outside them, the
 * digest over simulated statistics, and the pass loop every workload
 * runs under.
 *
 * A workload is a deterministic *pass* (same seed, same simulated
 * work, same epochs, same digest) repeated until the run's time
 * budget is spent. Other tenants of the host only ever slow work
 * down, so the run keeps, for every epoch of the pass, its fastest
 * time over the passes: the floor. Epoch percentiles are taken over
 * the floor, and rates divide a pass's fixed work by the floor's sum.
 * The traced run alternates untraced and traced passes, so the
 * tracing overhead is measured under the same machine conditions,
 * and both kinds of pass must produce the same digest.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** Host seconds on the steady clock. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile (q in [0, 1]) of unsorted samples. */
double quantile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** Peak resident set of this process, in MiB. */
double peakRssMb();

struct PassResult;

/**
 * The fastest time of each epoch over `passes` (which must all have
 * the same epoch count), and in `seconds` its sum plus the smallest
 * time any pass spent outside its epochs.
 */
std::vector<double> floorEpochs(const std::vector<PassResult> &passes,
                                double *seconds);

/**
 * Attributes host time to named layers. Spans nest: a span's self
 * time is its duration minus the time its child spans cover. A span
 * kind may be sampled with a stride S (only every S-th call is
 * timed, and a timed call stands for S calls); a span is timed only
 * when its parent is, so a sampled loop iteration times everything
 * inside it and an unsampled one times nothing. Calls are counted
 * whether timed or not. Coarse spans (stride 1 at the root) are also
 * kept as records and written out at exit.
 */
class Tracer
{
  public:
    /** Register (or look up) a span kind; stride >= 1. */
    int kind(const std::string &name, unsigned stride = 1);

    void begin(int kind_id);
    void end();

    /** Per-kind statistics accumulated since the last reset: estimated
     * self seconds, and calls. */
    double selfS(const std::string &name) const;
    std::uint64_t calls(const std::string &name) const;

    void resetStats();

    /** Write the coarse span records as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct KindStat
    {
        std::string name;
        unsigned stride = 1;
        std::uint64_t seen = 0; //!< calls, for the stride decision
        double selfS = 0.0;
        std::uint64_t calls = 0;
    };
    struct Frame
    {
        int kind;
        bool timed;
        double weight; //!< calls this instance stands for
        double start;
        double childS; //!< estimated child coverage of this instance
    };
    struct Record
    {
        int kind;
        double start;
        double end;
    };

    std::vector<KindStat> stats;
    std::map<std::string, int> byName;
    std::vector<Frame> stack;
    std::vector<Record> records;
    double origin = hostNow();
};

/** RAII span; a null tracer makes it free. */
class Span
{
  public:
    Span(Tracer *tracer, int kind_id) : tr(tracer)
    {
        if (tr)
            tr->begin(kind_id);
    }
    ~Span()
    {
        if (tr)
            tr->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tr;
};

/** FNV-1a over a canonical text rendering of simulated statistics. */
class Digest
{
  public:
    void add(const std::string &key, double value);
    void add(const std::string &key, std::uint64_t value);
    void add(const std::string &key, const std::string &value);
    std::string hex() const;

  private:
    void mix(const std::string &text);
    std::uint64_t h = 1469598103934665603ull;
};

/** What one pass of a workload did. */
struct PassResult
{
    double seconds = 0.0;        //!< host time of the timed work
    std::vector<double> epochsS; //!< host seconds per epoch, in order
    std::string digest;          //!< over simulated statistics only

    /** Work done, per rate metric: the rate is this over the run's
     * floor time (see floorEpochs()). Identical every pass. */
    std::map<std::string, double> work;

    /** Host measurements outside the epochs (memcond's resume); the
     * run reports the best pass: the minimum of a time, the maximum
     * of a rate (a name ending in _per_s). */
    std::map<std::string, double> timed;

    /** Simulated end-to-end outcomes; identical every pass. */
    std::map<std::string, double> outcomes;

    /** Per-layer values of a traced pass (self seconds, counts). */
    std::map<std::string, double> layers;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;       //!< test-suite size
    std::string workdir = "."; //!< scratch files (snapshots, spans)
};

/**
 * One benchmark workload. setup() builds every object the next pass
 * uses (main() times it several times before every pass; the last
 * build is used); runPass() does one deterministic pass on what the
 * last setup() built, and may consume it; restartS() times a
 * restart from nothing to the workload's first result. Correctness
 * violations are appended to `violations`.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup() = 0;
    /** Drop what setup() built, so that tearing it down (joining
     * threads, freeing models) is not timed as set-up. */
    virtual void release() = 0;
    virtual PassResult runPass(Tracer *tracer) = 0;
    virtual double restartS() = 0;

    /** Layer metrics measured outside the passes (setup timings). */
    virtual std::map<std::string, double> extraLayers() { return {}; }

    std::vector<std::string> violations;
};

std::unique_ptr<Workload> makeCampaign(const Options &opts);
std::unique_ptr<Workload> makeClosedLoop(const Options &opts);
std::unique_ptr<Workload> makeMemcond(const Options &opts);
std::unique_ptr<Workload> makeDetect(const Options &opts);

/** Every per-layer metric name the traced run must report, in order. */
const std::vector<std::string> &layerMetricNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
