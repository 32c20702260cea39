#include "common/stats.hh"

#include <sstream>

#include "common/logging.hh"

namespace memcon
{

void
StatGroup::inc(const std::string &stat, std::uint64_t delta)
{
    scalars[stat] += static_cast<double>(delta);
}

void
StatGroup::set(const std::string &stat, double value)
{
    scalars[stat] = value;
}

void
StatGroup::accum(const std::string &stat, double delta)
{
    scalars[stat] += delta;
}

double
StatGroup::value(const std::string &stat) const
{
    auto sit = scalars.find(stat);
    return sit == scalars.end() ? 0.0 : sit->second;
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    std::string prefix = groupName.empty() ? "" : groupName + ".";
    for (const auto &kv : scalars)
        os << strprintf("%-48s %.6g\n", (prefix + kv.first).c_str(),
                        kv.second);
    return os.str();
}

} // namespace memcon
