/**
 * @file
 * Attacker personas: RowHammer aggressor access streams.
 *
 * Patterned on Blacksmith's fuzzed hammering patterns: an attacker
 * picks a handful of aggressor rows inside one bank and activates
 * them in a tight loop, each access a row-buffer conflict so every
 * one costs the bank an ACT. The classic shapes are all instances of
 * one parameterisation:
 *
 *  - single-sided: two far-apart aggressors (the second exists only
 *    to force row conflicts); victims are the direct neighbors,
 *  - double-sided: the aggressor pair sandwiches one victim row
 *    (v-1, v+1) - the highest per-ACT flip yield,
 *  - many-sided: N aggressors spaced two rows apart, sandwiching
 *    N-1 victims (the TRR-evading patterns),
 *  - fuzzed: Blacksmith's move - aggressor count, spacing, and
 *    per-aggressor amplitude (consecutive accesses before moving on)
 *    drawn from a seeded generator, so campaigns sweep a *population*
 *    of patterns instead of one hand-built loop.
 *
 * A HammerStream exposes the same cursor interface as
 * TenantWriteStream (peek/pop/generated), so an attacker
 * co-runs with benign tenants through memcond's ingest machinery
 * unchanged, and the closed-loop benches drive it as demand traffic.
 * Aggressor rows are chosen in *local* (bank) row space and mapped to
 * physical flat rows through dram::AddressMap, the same adjacency the
 * disturb model charges victims by.
 */

#ifndef MEMCON_TRACE_HAMMER_HH
#define MEMCON_TRACE_HAMMER_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "dram/address_map.hh"

namespace memcon::trace
{

enum class HammerKind
{
    SingleSided,
    DoubleSided,
    ManySided,
    Fuzzed,
};

/** CLI name of a persona kind ("single-sided", ...). */
const char *hammerKindName(HammerKind kind);

/** All kinds, for --help text and persona sweeps. */
std::vector<HammerKind> allHammerKinds();

struct HammerSpec
{
    HammerKind kind = HammerKind::DoubleSided;

    /** Bank (shard index of the address map) the pattern hammers. */
    unsigned bank = 0;

    /**
     * Aggressor count for ManySided, and the upper bound the Fuzzed
     * builder draws from (it picks 2..sides).
     */
    unsigned sides = 8;

    /**
     * Aggressor activations per microsecond of service time, across
     * the whole pattern. Real attackers reach ~2 ACTs per tRC ~=
     * 20/us per bank; campaigns compress time and keep this in the
     * hundreds.
     */
    double actsPerUs = 100.0;

    /**
     * When set, actsPerUs counts *activations* rather than raw
     * accesses: amplitude > 1 accesses land in the open row buffer
     * and cost the bank no ACT, so the stream issues accesses
     * proportionally faster to hold the activation rate. Hits only
     * use data-bus slots (an order of magnitude cheaper than tRC),
     * so normalized patterns still fit the bank. This is how
     * Blacksmith characterizes its patterns - by hammer count, not
     * access count.
     */
    bool normalizeActRate = false;

    /** Service-time horizon the stream must cover, in ms. */
    double horizonMs = 2.0;

    /**
     * Local-row band [rowLo, rowHi) the aggressors are placed in;
     * rowHi == 0 means the whole bank. Real attackers aim at regions
     * they can keep cold (LO-REF rows accumulate disturbance over the
     * longer window), and the disturb benches use the band to target
     * rows the benign tenant never writes.
     */
    std::uint64_t rowLo = 0;
    std::uint64_t rowHi = 0;

    std::uint64_t seed = 1;
};

class HammerStream
{
  public:
    /**
     * Builds the aggressor pattern at construction (deterministic
     * from the spec); fatal when the bank or the chosen rows do not
     * fit the map/module.
     *
     * @param map physical placement; copied, callers need not keep it
     * @param num_rows the module's flat row population
     */
    HammerStream(const HammerSpec &spec, const dram::AddressMap &map,
                 std::uint64_t num_rows);

    /**
     * The next access, without consuming it: its service-time Tick
     * and physical flat row. @return false once the horizon is
     * exhausted.
     */
    bool peek(Tick *at, std::uint64_t *row);

    /** Consume the access peek() exposed; panics when exhausted. */
    void pop();

    /** Accesses consumed so far (the producer's durable position). */
    std::uint64_t generated() const { return popped; }

    /** Set the cursor to access index `count`: an access is a pure
     * function of its index, so the index is the cursor's whole
     * state. Panics past totalAccesses(). */
    void restoreCursor(std::uint64_t count);

    /** The pattern's aggressor rows (physical), in access order with
     * amplitudes expanded - one entry per slot of the loop. */
    const std::vector<std::uint64_t> &accessPattern() const
    {
        return pattern;
    }

    /** The distinct aggressor rows (physical), ascending. */
    const std::vector<std::uint64_t> &aggressors() const
    {
        return aggressorRows;
    }

    /** Total accesses the horizon admits. */
    std::uint64_t totalAccesses() const { return total; }

  private:
    HammerSpec cfg;
    std::vector<std::uint64_t> pattern; //!< one loop, physical rows
    std::vector<std::uint64_t> aggressorRows;
    double accessesPerUs = 0.0; //!< raw rate after normalization
    std::uint64_t total = 0;    //!< accesses within the horizon
    std::uint64_t popped = 0;   //!< cursor
};

} // namespace memcon::trace

#endif // MEMCON_TRACE_HAMMER_HH
