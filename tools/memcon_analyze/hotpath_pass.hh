/**
 * @file
 * The hot-path pass (rule `content-wordat`).
 *
 * ContentProvider::wordAt is a virtual call per 64-bit word; the
 * block API fillRow() (DESIGN.md §19) exists so row-granular
 * consumers pay one virtual dispatch per row instead of one per
 * word. This pass keeps the slow path from creeping back: any
 * `x.wordAt(...)` / `p->wordAt(...)` call outside the content
 * providers themselves is flagged.
 *
 * failure/content.hh and failure/content.cc are exempt - they hold
 * the providers and the one sanctioned per-word loop, the base-class
 * default fillRow() that bridges providers without a bulk override.
 * Priced baselines and cross-check tests that loop wordAt on purpose
 * suppress with a lint:allow marker naming content-wordat.
 */

#ifndef MEMCON_TOOLS_ANALYZE_HOTPATH_PASS_HH
#define MEMCON_TOOLS_ANALYZE_HOTPATH_PASS_HH

#include <vector>

#include "source_model.hh"

namespace memcon::analyze
{

/**
 * Scan one file for member calls to wordAt(). Returns raw
 * violations - allowances are applied centrally by the framework.
 */
std::vector<Violation> hotpathPass(const SourceFile &file);

} // namespace memcon::analyze

#endif // MEMCON_TOOLS_ANALYZE_HOTPATH_PASS_HH
