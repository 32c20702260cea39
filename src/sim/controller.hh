/**
 * @file
 * An FR-FCFS memory controller over one DDR3 channel.
 *
 * Scheduling policy (Table 2 system):
 *  - separate read and write queues; writes are posted and drained in
 *    batches between high/low watermarks,
 *  - FR-FCFS: row-hit column commands first, then oldest-first,
 *  - demand requests outrank MEMCON test traffic (isTest),
 *  - refresh: one REF per rank every effective tREFI, with strict
 *    priority (open banks are precharged, then the rank is blocked
 *    for tRFC). The effective tREFI is base tREFI divided by
 *    (1 - refreshReduction): a 75% reduction stretches it 4x, which
 *    is how the paper models MEMCON's multi-rate refresh inside the
 *    cycle simulator (Section 6.2).
 *
 * Time advance (sim/cycle_loop.hh): nextEventTick() bounds the next
 * cycle in which tick() can complete a read that is probed or called
 * back, act on a due refresh or issue a command. The bound is cached;
 * tick() before it is an idle cycle and returns in O(1), and an
 * accepted enqueue() or a refresh re-target drops the cache.
 *
 * A silent read - test traffic with no completion callback - only
 * counts when it completes, so its completion is no event: reads
 * finish in issue order (one data bus, a fixed CL), and the silent
 * ones that finished are credited in that order at the next tick that
 * does act. stats(), saveState() and idle() fold in those that
 * finished by the last tick reached, so every dump and state record
 * reads as if each completion had been its own cycle.
 */

#ifndef MEMCON_SIM_CONTROLLER_HH
#define MEMCON_SIM_CONTROLLER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "dram/channel.hh"
#include "dram/ecc.hh"
#include "sim/request.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::sim
{

struct ControllerConfig
{
    std::size_t readQueueCapacity = 32;
    std::size_t writeQueueCapacity = 32;
    std::size_t writeDrainHigh = 28; //!< start draining writes
    std::size_t writeDrainLow = 8;   //!< stop draining writes

    /**
     * Fraction of baseline refresh operations eliminated (0 = the
     * aggressive baseline cadence, 0.75 = the 64 ms upper bound).
     */
    double refreshReduction = 0.0;

    /** Disable refresh entirely (ideal-no-refresh ablation). */
    bool refreshEnabled = true;

    /**
     * Starvation guard: a demand request older than this is served
     * before younger row hits. Pure FR-FCFS can starve a row-miss
     * request indefinitely behind streaming row-hit traffic.
     */
    Tick starvationThreshold = Tick{2 * tickPerUs};

    /**
     * Test-traffic admission limit: test requests are only accepted
     * while the target queue holds fewer entries than this, keeping
     * headroom for demand requests (test traffic is deprioritised at
     * admission as well as at service).
     */
    std::size_t testAdmissionLimit = 16;

    /**
     * Invoked for every accepted demand write (MEMCON's online
     * write-tracking hook; test traffic is not reported).
     */
    std::function<void(std::uint64_t addr, Tick now)> writeObserver;

    /**
     * Invoked for every row activation (ACT) the controller issues,
     * demand and test traffic alike - the accounting read-disturb
     * analysis hangs off. The address is the request's block address;
     * the observer maps it to a row.
     */
    std::function<void(std::uint64_t addr, Tick now)> activateObserver;

    /**
     * Models the ECC decode of the data a completed demand read
     * returns (fault-injection hook). Absent means every read
     * decodes clean. Test-traffic reads are not probed - a test's
     * verdict comes from OnlineMemcon's failure oracle.
     */
    std::function<dram::EccStatus(std::uint64_t addr, Tick now)>
        eccProbe;

    /**
     * Invoked for every demand read whose decode was not Ok (the
     * error-event hook the resilience layer listens on).
     */
    std::function<void(std::uint64_t addr, dram::EccStatus status,
                       Tick now)>
        errorObserver;
};

class MemoryController
{
  public:
    MemoryController(const dram::Geometry &geometry,
                     const dram::TimingParams &timing,
                     const ControllerConfig &config);

    /** Try to accept a request; false when the target queue is full. */
    bool enqueue(Request request, Tick now);

    /** Would enqueue() accept a request of this kind right now? */
    bool accepts(Request::Type type, bool is_test) const;

    /** Advance one DRAM clock: issue at most one command. */
    void tick(Tick now);

    /**
     * The earliest tick after `now` at which tick() can do more than
     * idle bookkeeping, provided nothing is enqueued before it: the
     * next refresh action, the earliest completion of a read that is
     * not silent, the earliest issue tick of each queue's FR-FCFS
     * pick, and the tick its oldest demand request ages past the
     * starvation threshold. Call after tick(now).
     */
    Tick nextEventTick(Tick now);

    /**
     * Account for `cycles` ticks after `now` that nextEventTick()
     * proved idle: the write-drain hysteresis still steps once per
     * tick, and the last of them is the last tick reached.
     */
    void skipCycles(Tick now, std::uint64_t cycles);

    /**
     * Count `n` refused enqueue() attempts at once: a requester that
     * stays blocked on a full queue over skipped cycles.
     */
    void recordRefusals(std::uint64_t n) { counts.queueFull += n; }

    /**
     * Re-target the refresh cadence while running (MEMCON adapts it
     * as the LO-REF row fraction changes). Takes effect from the
     * next scheduled refresh.
     */
    void setRefreshReduction(double reduction);

    /** Current effective reduction. */
    double refreshReduction() const { return cfg.refreshReduction; }

    /** @return true when both queues are empty and every read has
     * finished, silent ones by the last tick reached. */
    bool idle() const;

    std::size_t readQueueSize() const { return readQueue.size(); }
    std::size_t writeQueueSize() const { return writeQueue.size(); }

    /**
     * The counters, as group "mc", with the silent reads that finished
     * by the last tick reached folded in. A key appears once its
     * counter is nonzero.
     */
    StatGroup stats() const;
    const dram::Channel &channel() const { return chan; }

    /**
     * Save the queues, in-flight reads, drain and refresh state, the
     * counters and the channel's timing as state record lines
     * (common/state_io.hh); the next-event cache is not saved. Queued
     * requests must carry no completion callback: a closure cannot be
     * saved, so a controller that holds one panics here. loadState
     * reads the lines back into a controller built with the same
     * geometry, timing and config, and refuses a value no run can
     * reach.
     */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

  private:
    struct Pending
    {
        Request req;
        Tick dataDone;

        /** Only counted on completion: no probe, no callback. */
        bool silent() const { return req.isTest && !req.onComplete; }
    };

    /**
     * In-flight reads in issue order, which is completion order. A
     * ring that grows by doubling; construction allocates nothing.
     */
    class ReadFifo
    {
      public:
        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }
        const Pending &operator[](std::size_t i) const
        {
            return slots[(head + i) & (slots.size() - 1)];
        }
        Pending &front() { return slots[head]; }
        const Pending &back() const { return (*this)[count - 1]; }
        void pushBack(Pending p);
        void popFront();
        void
        clear()
        {
            slots.clear();
            head = count = 0;
        }

      private:
        std::vector<Pending> slots; //!< power-of-two size
        std::size_t head = 0;
        std::size_t count = 0;
    };

    /** The per-request counters; stats() names them. */
    struct Counters
    {
        std::uint64_t act = 0;
        std::uint64_t completedRead = 0;
        std::uint64_t completedWrite = 0;
        std::uint64_t eccCorrected = 0;
        std::uint64_t eccUncorrectable = 0;
        std::uint64_t enqRead = 0;
        std::uint64_t enqWrite = 0;
        std::uint64_t queueFull = 0;
        std::uint64_t refresh = 0;
        std::uint64_t rowConflict = 0;
        std::uint64_t rowHit = 0;
        std::uint64_t rowMiss = 0;
        std::uint64_t svcRead = 0;
        std::uint64_t svcWrite = 0;
        double readLatencyTicks = 0.0;

        /** Count one completed read. */
        void credit(const Pending &done)
        {
            ++completedRead;
            readLatencyTicks += static_cast<double>(
                (done.dataDone - done.req.arrival).value());
        }
    };

    struct CounterName
    {
        const char *name;
        std::uint64_t Counters::*field;
    };

    /** stats()'s name for each integer counter, in name order. */
    static const CounterName kCounterNames[];

    /** How many silent reads at the front of `inflight` finished by
     * lastTick and are not yet counted. */
    std::size_t finishedSilentReads() const;

    /** The counters with those silent reads credited. */
    Counters foldedCounts() const;

    /** A request queue and how many of its entries are demand. */
    struct RequestQueue
    {
        std::deque<Request> entries;
        std::size_t demands = 0; //!< entries that are not test traffic

        bool empty() const { return entries.empty(); }
        std::size_t size() const { return entries.size(); }
    };

    /** A queue's FR-FCFS pick as of some tick. */
    struct Candidate
    {
        int index = -1;            //!< into the queue; -1 when empty
        dram::Command command{};   //!< what the pick needs next
        Tick issueAt = kTickNever; //!< when that command is legal
        Tick changesAt = kTickNever; //!< when the pick itself can change

        Tick eventTick() const { return std::min(issueAt, changesAt); }
    };

    /** The best FR-FCFS candidate of the queue, and the command it
     * needs: RD/WR on a row hit, PRE on a conflict, ACT when closed. */
    Candidate pickCandidate(const RequestQueue &queue, Tick now) const;

    /** Earliest tick the first due rank's refresh can make progress. */
    Tick refreshActionTick(unsigned rank) const;

    bool refreshDue(Tick now) const;
    bool nextDrainState(bool draining) const;
    void advanceDrainState(std::uint64_t cycles);

    /** nextEventTick()'s bound, given each queue's pick event tick. */
    Tick eventBound(Tick now, Tick read_event, Tick write_event) const;

    /** Issue the queue pick's next command if it is legal now;
     * otherwise fold the pick's event tick into `idle_bound`. */
    bool serviceQueue(RequestQueue &queue, Tick now, Tick &idle_bound);
    void handleRefresh(Tick now);
    void completeFinishedReads(Tick now);

    dram::Geometry geom;
    dram::TimingParams params;
    ControllerConfig cfg;
    dram::Channel chan;

    RequestQueue readQueue;
    RequestQueue writeQueue;
    ReadFifo inflight;

    bool drainingWrites = false;
    std::vector<Tick> nextRefresh; //!< per rank
    Tick effectiveTrefi;

    /** nextEventTick()'s cached bound; Tick{} when stale. Not saved. */
    Tick cachedNext{};

    /** The last tick ticked or skipped over. */
    Tick lastTick{};

    Counters counts;
};

} // namespace memcon::sim

#endif // MEMCON_SIM_CONTROLLER_HH
