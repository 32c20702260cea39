/**
 * @file
 * The determinism rules (DESIGN.md §10), now one pass of the
 * memcon_analyze framework (DESIGN.md §18):
 *
 *   random-device   std::random_device anywhere (seeds must be fixed
 *                   and flow through common/random.hh)
 *   rand            rand() / srand() (libc RNG, unseeded state)
 *   wall-clock      time(), clock(), and the std::chrono wall/steady
 *                   clocks (results must not depend on when they ran)
 *   unordered-iter  range-for or .begin()/.cbegin() over a variable
 *                   declared as unordered_map/unordered_set in the
 *                   same file (iteration order is implementation
 *                   noise; use common/ordered.hh)
 *   empty-catch     a catch handler with an empty body (swallowing
 *                   an error hides crash-safety bugs; handle it,
 *                   rethrow, or lint:allow with a justification)
 *   lint-marker     a malformed lint:allow or memcon: marker - a
 *                   suppression or annotation that silently fails to
 *                   parse is reported, never dropped
 *
 * A violation on line N is suppressed by a `// lint:allow` marker
 * naming its rule on line N or N-1. The scanner strips comments and string literals
 * before matching, so prose and format strings never trip a rule.
 *
 * The tool is intentionally per-file (no cross-TU type knowledge): a
 * container received as a template or function parameter is invisible
 * to unordered-iter. That is the accepted trade-off for a lint that
 * builds in-tree in milliseconds and runs as a tier-1 test.
 *
 * The framework (analyze.hh) runs this pass alongside the others and
 * applies lint:allow suppression centrally.
 */

#ifndef MEMCON_TOOLS_LINT_HH
#define MEMCON_TOOLS_LINT_HH

#include <vector>

#include "source_model.hh"

namespace memcon::lint
{

/**
 * The determinism pass over an already-parsed file: raw violations,
 * before lint:allow suppression (the framework applies allowances
 * once, centrally). `companion` contributes unordered-container
 * declarations only.
 */
std::vector<analyze::Violation>
determinismPass(const analyze::SourceFile &file,
                const analyze::SourceFile *companion);

} // namespace memcon::lint

#endif // MEMCON_TOOLS_LINT_HH
