/**
 * @file
 * The scanning substrate every memcon_analyze pass shares.
 *
 * A SourceFile is one parsed translation unit: the raw text with
 * comments and string/character literals blanked (so line numbers
 * survive but prose never trips a rule), the token stream over that
 * cleaned text, the `#include "..."` directives (collected before
 * stripping - the include path lives in a string literal), and the
 * markers harvested from comment text:
 *
 *   allow(<rule>)         suppress <rule> on this or the next line
 *                         (the escape hatch every pass honors)
 *   guarded_by(<mutex>)   the member declared on this (or the next)
 *                         line may only be touched while <mutex> is
 *                         held
 *   shard_local           the member declared here is shard-confined
 *                         state
 *   shard_scope           the function defined below is an audited
 *                         accessor of shard-confined state
 *   requires(<mutex>)     the function defined below is called with
 *                         <mutex> already held
 *
 * The allow marker is spelled with a `lint:` prefix and the
 * annotation kinds with a `memcon:` prefix directly before the kind,
 * in any comment (this header's own docs name them bare so the
 * analyzer's self-scan does not read prose as markers).
 *
 * A malformed marker - an unterminated allow marker, an allow marker
 * naming a rule the registry does not know, a known kind
 * with a missing or unclosed argument list, an annotation that does
 * not attach to any declaration or function body - is a violation of
 * its own (rule `lint-marker`), never a silent no-op: a suppression
 * or a contract that quietly fails to parse is worse than no marker
 * at all.
 */

#ifndef MEMCON_TOOLS_ANALYZE_SOURCE_MODEL_HH
#define MEMCON_TOOLS_ANALYZE_SOURCE_MODEL_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace memcon::analyze
{

struct Violation
{
    std::string file;
    unsigned line = 0;
    std::string rule;
    std::string message;
};

struct Token
{
    std::string text;
    unsigned line;
};

/** A lint:allow marker naming a registered rule, from a comment. */
struct Allowance
{
    unsigned line;
    std::string rule;
};

/** A well-formed memcon:<kind>(<arg>) annotation marker. */
struct Annotation
{
    unsigned line;
    std::string kind; //!< guarded_by | shard_local | shard_scope | requires
    std::string arg;  //!< mutex name; empty for the bare kinds
};

struct SourceFile
{
    std::string path;
    std::string clean; //!< source with comments/strings blanked
    std::vector<Token> tokens;
    std::vector<Allowance> allowances;
    std::vector<Annotation> annotations;

    /** Malformed markers, as rule `lint-marker` violations. */
    std::vector<Violation> markerViolations;

    /** `#include "..."` directives: (line, quoted path). */
    std::vector<std::pair<unsigned, std::string>> includes;
};

bool isIdentChar(char c);

/** Parse one buffer into the shared model. */
SourceFile parseSource(const std::string &path, const std::string &text);

/** tokens[i].text, or "" past the end. */
const std::string &tok(const std::vector<Token> &tokens, std::size_t i);

/** True when tokens[i] is reached via `.` or `->`. */
bool isMemberAccess(const std::vector<Token> &tokens, std::size_t i);

/** True when tokens[i] is reached via `this->` or `this.`. */
bool isThisAccess(const std::vector<Token> &tokens, std::size_t i);

/**
 * Drop every violation a lint:allow marker naming its rule covers,
 * on the same line or the line above. Order is preserved.
 */
std::vector<Violation>
applyAllowances(std::vector<Violation> raw,
                const std::vector<Allowance> &allowances);

/** A guarded_by / shard_local annotation resolved to its member. */
struct AnnotatedMember
{
    std::string name;
    std::string kind;
    std::string arg;      //!< mutex name for guarded_by
    unsigned declLine = 0; //!< line of the declaration itself
};

/**
 * Resolve every member annotation in `file` to the name it declares
 * (the last identifier before `=`, `{`, `,`, or `;` at bracket depth
 * zero on the annotation's own line, or on the next line for a
 * marker placed above the declaration). Unresolvable annotations are
 * appended to `marker_out` as lint-marker violations.
 */
std::vector<AnnotatedMember>
annotatedMembers(const SourceFile &file,
                 std::vector<Violation> *marker_out);

/** A shard_scope / requires annotation resolved to a token range. */
struct AnnotatedRegion
{
    std::string kind;
    std::string arg;
    unsigned line = 0;       //!< annotation line
    std::size_t beginTok = 0; //!< first token after the marker line
    std::size_t endTok = 0;   //!< token index of the closing brace
};

/**
 * Resolve every function annotation in `file` to the token range of
 * the function defined below it: from the first token after the
 * marker's line through the brace that closes the first `{` found
 * (so constructor initializer lists are inside the region). A marker
 * with no function body below it becomes a lint-marker violation.
 */
std::vector<AnnotatedRegion>
annotatedRegions(const SourceFile &file,
                 std::vector<Violation> *marker_out);

} // namespace memcon::analyze

#endif // MEMCON_TOOLS_ANALYZE_SOURCE_MODEL_HH
