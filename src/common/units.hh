/**
 * @file
 * Strongly-typed time units shared across the library.
 *
 * The cycle-level simulator counts time in Ticks of one picosecond,
 * which represents every JEDEC DDR3 timing parameter exactly
 * (tCK = 1.25 ns = 1250 ticks). The write-interval machinery, which
 * operates at millisecond scale over minutes of wall time, uses
 * TimeMs (milliseconds over a double) to avoid mixing the two
 * regimes.
 *
 * Both used to be bare aliases, so a picosecond quantity flowed into
 * a millisecond API without complaint. They are now distinct strong
 * types: same-unit arithmetic and scalar scaling work as before,
 * cross-unit arithmetic refuses to compile, and every boundary
 * crossing goes through a named conversion (nsToTicks, ticksToMs,
 * ...) or an explicit constructor. The wrappers compile to the same
 * code as the raw representations.
 */

#ifndef MEMCON_COMMON_UNITS_HH
#define MEMCON_COMMON_UNITS_HH

#include <compare>
#include <cstdint>

namespace memcon
{

/**
 * A quantity of one time unit. Supports exactly the operations a
 * unit admits: adding/subtracting same-unit quantities, scaling by a
 * dimensionless factor, and dividing two quantities into a
 * dimensionless ratio. Anything else (mixing units, implicit raw
 * conversion) is a compile error.
 */
template <typename Tag, typename Rep>
class StrongUnit
{
  public:
    using rep = Rep;

    constexpr StrongUnit() = default;
    explicit constexpr StrongUnit(Rep raw) : raw_(raw) {}

    /** The raw count, for printing and storage at the boundary. */
    constexpr Rep value() const { return raw_; }

    constexpr auto operator<=>(const StrongUnit &) const = default;

    // --- same-unit arithmetic ---

    friend constexpr StrongUnit
    operator+(StrongUnit a, StrongUnit b)
    {
        return StrongUnit{static_cast<Rep>(a.raw_ + b.raw_)};
    }
    friend constexpr StrongUnit
    operator-(StrongUnit a, StrongUnit b)
    {
        return StrongUnit{static_cast<Rep>(a.raw_ - b.raw_)};
    }
    constexpr StrongUnit &
    operator+=(StrongUnit o)
    {
        raw_ = static_cast<Rep>(raw_ + o.raw_);
        return *this;
    }
    constexpr StrongUnit &
    operator-=(StrongUnit o)
    {
        raw_ = static_cast<Rep>(raw_ - o.raw_);
        return *this;
    }

    // --- dimensionless scaling ---

    friend constexpr StrongUnit
    operator*(StrongUnit a, Rep k)
    {
        return StrongUnit{static_cast<Rep>(a.raw_ * k)};
    }
    friend constexpr StrongUnit
    operator*(Rep k, StrongUnit a)
    {
        return StrongUnit{static_cast<Rep>(k * a.raw_)};
    }
    friend constexpr StrongUnit
    operator/(StrongUnit a, Rep k)
    {
        return StrongUnit{static_cast<Rep>(a.raw_ / k)};
    }

    // --- quantity ratios (dimensionless) ---

    friend constexpr Rep
    operator/(StrongUnit a, StrongUnit b)
    {
        return static_cast<Rep>(a.raw_ / b.raw_);
    }
    friend constexpr StrongUnit
    operator%(StrongUnit a, StrongUnit b)
    {
        return StrongUnit{static_cast<Rep>(a.raw_ % b.raw_)};
    }

  private:
    Rep raw_ = Rep{};
};

/** Simulator time in picoseconds. */
using Tick = StrongUnit<struct TickTag, std::uint64_t>;

/** A tick no simulation reaches: the bound of a component with
 * nothing scheduled. */
constexpr Tick kTickNever{~std::uint64_t{0}};

/** Coarse time in milliseconds (write-interval domain). */
using TimeMs = StrongUnit<struct TimeMsTag, double>;

/** Number of retired instructions. */
using InstCount = std::uint64_t;

/** Dimensionless tick-per-unit scale factors. */
constexpr std::uint64_t tickPerNs = 1000;
constexpr std::uint64_t tickPerUs = 1000 * tickPerNs;
constexpr std::uint64_t tickPerMs = 1000 * tickPerUs;
constexpr std::uint64_t tickPerSec = 1000 * tickPerMs;

/** Convert nanoseconds (possibly fractional) to ticks, rounding. */
constexpr Tick
nsToTicks(double ns)
{
    return Tick{static_cast<std::uint64_t>(
        ns * static_cast<double>(tickPerNs) + 0.5)};
}

/** Convert microseconds to ticks, rounding. */
constexpr Tick
usToTicks(double us)
{
    return Tick{static_cast<std::uint64_t>(
        us * static_cast<double>(tickPerUs) + 0.5)};
}

/** Convert milliseconds to ticks, rounding. */
constexpr Tick
msToTicks(double ms)
{
    return Tick{static_cast<std::uint64_t>(
        ms * static_cast<double>(tickPerMs) + 0.5)};
}

/** Convert ticks to (fractional) nanoseconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t.value()) /
           static_cast<double>(tickPerNs);
}

/** Convert ticks to the millisecond domain. */
constexpr TimeMs
ticksToMs(Tick t)
{
    return TimeMs{static_cast<double>(t.value()) /
                  static_cast<double>(tickPerMs)};
}

/** Convert a millisecond-domain quantity to ticks, rounding. */
constexpr Tick
timeMsToTicks(TimeMs t)
{
    return msToTicks(t.value());
}

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;
constexpr std::uint64_t GiB = 1024 * MiB;

/** Gigabit, the unit DRAM chip densities are quoted in. */
constexpr std::uint64_t Gbit = GiB / 8;

} // namespace memcon

#endif // MEMCON_COMMON_UNITS_HH
