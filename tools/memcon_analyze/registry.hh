/**
 * @file
 * The rule registry: every memcon_analyze rule, its pass, severity,
 * and one-line documentation, in one place. The CLI's --list,
 * --only/--skip validation, and the README rules table all derive
 * from here - adding a pass means adding its rows here or the tool
 * refuses to select them.
 */

#ifndef MEMCON_TOOLS_ANALYZE_REGISTRY_HH
#define MEMCON_TOOLS_ANALYZE_REGISTRY_HH

#include <string>
#include <vector>

namespace memcon::analyze
{

struct RuleInfo
{
    std::string name;     //!< as named in a lint:allow marker
    std::string pass;     //!< determinism | markers | concurrency |
                          //!< layering | units
    std::string severity; //!< all rules are "error" today; the field
                          //!< exists so a future advisory tier does
                          //!< not need a schema change
    std::string summary;  //!< one line, shown by --list
};

/** Every rule, in stable documentation order. */
const std::vector<RuleInfo> &ruleRegistry();

/** True when `name` is a registered rule. */
bool knownRule(const std::string &name);

} // namespace memcon::analyze

#endif // MEMCON_TOOLS_ANALYZE_REGISTRY_HH
