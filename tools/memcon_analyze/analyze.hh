/**
 * @file
 * The memcon_analyze framework: runs every registered pass
 * (determinism, markers, concurrency, layering, units - see
 * registry.hh) over a set of sources, applies lint:allow
 * suppressions once, centrally, and renders text or JSON.
 *
 * Passes are per-file except layering, which sees the whole set at
 * once (its subject is the include graph). For an X.cc, a sibling
 * X.hh is attached as companion declaration context, so members
 * annotated in the class header are enforced in the implementation
 * file.
 */

#ifndef MEMCON_TOOLS_ANALYZE_ANALYZE_HH
#define MEMCON_TOOLS_ANALYZE_ANALYZE_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "source_model.hh"

namespace memcon::analyze
{

struct AnalyzeOptions
{
    /** Run only these rules (empty = all). */
    std::vector<std::string> only;
    /** Drop these rules after the run. */
    std::vector<std::string> skip;
};

struct AnalyzeResult
{
    std::vector<Violation> violations;
    std::size_t filesScanned = 0;
};

/**
 * Analyze in-memory sources: (path, text) pairs. The path decides
 * layering component, units.hh exemption, and companion pairing
 * (same directory, same stem, .hh/.hpp against .cc/.cpp). Fixture
 * tests inject synthetic trees - including deliberate back-edges -
 * through this entry point.
 */
AnalyzeResult
analyzeSources(
    const std::vector<std::pair<std::string, std::string>> &sources,
    const AnalyzeOptions &options);

/**
 * Analyze files and directories on disk (recursively expanded to
 * .cc/.hh/.cpp/.hpp, sorted for stable reports). A .cc whose header
 * was not in the expansion still gets its disk sibling as companion
 * context.
 */
AnalyzeResult analyzePaths(const std::vector<std::string> &paths,
                           const AnalyzeOptions &options);

/** One lint:allow marker, resolved to its file and rule. */
struct AllowanceSite
{
    std::string file;
    unsigned line = 0;
    std::string rule;
};

/**
 * Enumerate every lint:allow marker in the given in-memory sources
 * (the --list-allows report): the suppression inventory a
 * reviewer audits, since every entry is a rule the codebase opted
 * out of somewhere. Honors AnalyzeOptions::only/skip as a rule
 * filter; sorted by (file, line, rule).
 */
std::vector<AllowanceSite>
listAllowances(
    const std::vector<std::pair<std::string, std::string>> &sources,
    const AnalyzeOptions &options);

/** Disk variant of listAllowances; unreadable files are skipped. */
std::vector<AllowanceSite>
listAllowancesInPaths(const std::vector<std::string> &paths,
                      const AnalyzeOptions &options);

/** One "file:line: lint:allow" line per site (the marker with its
 *  rule) plus a per-rule tally. */
std::string formatAllowances(const std::vector<AllowanceSite> &sites);

/** Machine-readable report: {"allowances":[...],"total":N}. */
std::string
formatAllowancesJson(const std::vector<AllowanceSite> &sites);

/** "file:line: [rule] message" lines - the problem-matcher format. */
std::string formatText(const AnalyzeResult &result);

/** Machine-readable report: {"violations":[...],"files_scanned":N}. */
std::string formatJson(const AnalyzeResult &result);

/** Read a whole file; false when it cannot be opened. */
bool readFileText(const std::string &path, std::string *out);

} // namespace memcon::analyze

#endif // MEMCON_TOOLS_ANALYZE_ANALYZE_HH
