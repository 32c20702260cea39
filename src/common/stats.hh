/**
 * @file
 * A minimal named-statistics registry in the spirit of gem5's stats
 * package: components register scalar counters under a dotted name,
 * and a group can be dumped as text at the end of a run.
 */

#ifndef MEMCON_COMMON_STATS_HH
#define MEMCON_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace memcon
{

/**
 * A collection of named scalar statistics. Components hold a
 * reference to a StatGroup and bump counters through it.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : groupName(std::move(name)) {}

    /** Add delta to the named counter, creating it at zero. */
    void inc(const std::string &stat, std::uint64_t delta = 1);

    /** Overwrite the named scalar value. */
    void set(const std::string &stat, double value);

    /** Accumulate a floating-point quantity. */
    void accum(const std::string &stat, double delta);

    /** @return the current value of the named stat (0 if absent). */
    double value(const std::string &stat) const;

    /** Render "name value" lines, sorted by name. */
    std::string dump() const;

    const std::string &name() const { return groupName; }

    /** Every counter, by name (state records save them). */
    const std::map<std::string, double> &entries() const { return scalars; }

    /** Replace every counter (state records restore them). */
    void assign(std::map<std::string, double> values)
    {
        scalars = std::move(values);
    }

  private:
    std::string groupName;
    std::map<std::string, double> scalars;
};

} // namespace memcon

#endif // MEMCON_COMMON_STATS_HH
