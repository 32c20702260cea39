/**
 * @file
 * The architectural-layering pass (rule `layering`).
 *
 * The repository's component graph is a DAG (DESIGN.md §18):
 *
 *   common -> dram -> { failure, trace } -> sim -> core -> service
 *   bench / tools / examples sit on top of everything; tests/ is
 *   exempt (fixtures may include anything).
 *
 * Components at the same rank (failure, trace) may include each
 * other - the pass proves those edges stay acyclic at file
 * granularity and prints the offending include chain when they
 * don't. An include whose target ranks *above* its source (service
 * code reached from dram, core reached from sim, ...) is a
 * back-edge and fails the build with the edge's location.
 *
 * Includes are resolved the way the build does: a quoted path is
 * tried relative to src/ first, then as a sibling of the including
 * file. System includes (<...>) and unresolvable project includes
 * are ignored - the compiler already fails on genuinely missing
 * headers.
 */

#ifndef MEMCON_TOOLS_ANALYZE_LAYERING_HH
#define MEMCON_TOOLS_ANALYZE_LAYERING_HH

#include <vector>

#include "source_model.hh"

namespace memcon::analyze
{

/**
 * Check every file's includes against the component DAG and the
 * same-rank file graph for cycles. Violations are attributed to the
 * offending `#include` line. Returns raw violations - allowances
 * are applied centrally by the framework.
 */
std::vector<Violation>
layeringPass(const std::vector<SourceFile> &files);

/**
 * The component a path belongs to ("common", "dram", "core",
 * "failure", "trace", "sim", "service", "bench", "tools",
 * "examples"), or "" when the path is outside the layered tree
 * (tests/, third-party, ...).
 */
std::string componentOf(const std::string &path);

/** DAG rank of a component; -1 for unknown/exempt. */
int componentRank(const std::string &component);

} // namespace memcon::analyze

#endif // MEMCON_TOOLS_ANALYZE_LAYERING_HH
