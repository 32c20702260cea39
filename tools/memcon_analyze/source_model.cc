#include "source_model.hh"

#include <cctype>
#include <set>

#include "registry.hh"

namespace memcon::analyze
{
namespace
{

const char *const kAllowMarker = "lint:allow(";
const char *const kMemconMarker = "memcon:";

bool
isAnnotationKind(const std::string &kind)
{
    return kind == "guarded_by" || kind == "shard_local" ||
           kind == "shard_scope" || kind == "requires";
}

bool
kindTakesArg(const std::string &kind)
{
    return kind == "guarded_by" || kind == "requires";
}

/**
 * Harvest lint:allow and memcon: markers from one comment's text.
 * Matched markers are skipped over entirely (two markers on one line
 * both register); malformed ones - including an allow naming a rule
 * missing from the registry - become lint-marker violations and
 * never allowances.
 */
void
scanMarkers(const std::string &comment, unsigned comment_line,
            const std::string &file, SourceFile &out)
{
    const std::string allow = kAllowMarker;
    const std::string memcon = kMemconMarker;
    unsigned line = comment_line;
    std::size_t i = 0;
    while (i < comment.size()) {
        if (comment[i] == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (comment.compare(i, allow.size(), allow) == 0) {
            std::size_t start = i + allow.size();
            std::size_t close = comment.find(')', start);
            if (close == std::string::npos) {
                out.markerViolations.push_back(
                    {file, line, "lint-marker",
                     "unterminated lint:allow( marker; the "
                     "suppression is inert - close the parenthesis "
                     "or remove it"});
                i = start;
                continue;
            }
            std::string rule = comment.substr(start, close - start);
            if (knownRule(rule))
                out.allowances.push_back({line, std::move(rule)});
            else
                out.markerViolations.push_back(
                    {file, line, "lint-marker",
                     "lint:allow names unknown rule '" + rule +
                         "'; the suppression is inert - fix the name "
                         "(see memcon_analyze --list)"});
            i = close + 1;
            continue;
        }
        if (comment.compare(i, memcon.size(), memcon) == 0) {
            std::size_t kstart = i + memcon.size();
            std::size_t kend = kstart;
            while (kend < comment.size() &&
                   isIdentChar(comment[kend]))
                ++kend;
            std::string kind = comment.substr(kstart, kend - kstart);
            if (!isAnnotationKind(kind)) {
                // Prose ("memcond: the service...") - not a marker.
                i = kend > i ? kend : i + 1;
                continue;
            }
            if (kindTakesArg(kind)) {
                if (kend >= comment.size() || comment[kend] != '(') {
                    out.markerViolations.push_back(
                        {file, line, "lint-marker",
                         "memcon:" + kind +
                             " needs a (<mutex>) argument"});
                    i = kend;
                    continue;
                }
                std::size_t close = comment.find(')', kend + 1);
                if (close == std::string::npos) {
                    out.markerViolations.push_back(
                        {file, line, "lint-marker",
                         "unterminated memcon:" + kind +
                             "( annotation"});
                    i = kend + 1;
                    continue;
                }
                std::string arg =
                    comment.substr(kend + 1, close - kend - 1);
                if (arg.empty()) {
                    out.markerViolations.push_back(
                        {file, line, "lint-marker",
                         "memcon:" + kind +
                             " names no mutex in its argument"});
                    i = close + 1;
                    continue;
                }
                out.annotations.push_back({line, kind, arg});
                i = close + 1;
                continue;
            }
            out.annotations.push_back({line, kind, ""});
            i = kend;
            continue;
        }
        ++i;
    }
}

/** Collect `#include "..."` directives from the raw text. */
void
collectIncludes(const std::string &src, SourceFile &out)
{
    unsigned line = 1;
    std::size_t pos = 0;
    while (pos < src.size()) {
        std::size_t eol = src.find('\n', pos);
        if (eol == std::string::npos)
            eol = src.size();
        std::size_t p = pos;
        while (p < eol && std::isspace(static_cast<unsigned char>(
                              src[p])))
            ++p;
        if (p < eol && src[p] == '#') {
            ++p;
            while (p < eol &&
                   std::isspace(static_cast<unsigned char>(src[p])))
                ++p;
            if (src.compare(p, 7, "include") == 0) {
                std::size_t q1 = src.find('"', p + 7);
                if (q1 != std::string::npos && q1 < eol) {
                    std::size_t q2 = src.find('"', q1 + 1);
                    if (q2 != std::string::npos && q2 < eol)
                        out.includes.emplace_back(
                            line,
                            src.substr(q1 + 1, q2 - q1 - 1));
                }
            }
        }
        line++;
        pos = eol + 1;
    }
}

/**
 * Strip comments and string/character literals (replaced by spaces
 * so line numbers survive), harvesting markers from comment text.
 */
std::string
stripAndScan(const std::string &src, SourceFile &out)
{
    std::string clean;
    clean.reserve(src.size());
    unsigned line = 1;

    std::size_t i = 0;
    while (i < src.size()) {
        char c = src[i];
        if (c == '\n') {
            clean += '\n';
            ++line;
            ++i;
        } else if (c == '/' && i + 1 < src.size() &&
                   src[i + 1] == '/') {
            std::size_t end = src.find('\n', i);
            if (end == std::string::npos)
                end = src.size();
            scanMarkers(src.substr(i, end - i), line, out.path, out);
            clean.append(end - i, ' ');
            i = end;
        } else if (c == '/' && i + 1 < src.size() &&
                   src[i + 1] == '*') {
            std::size_t end = src.find("*/", i + 2);
            if (end == std::string::npos)
                end = src.size();
            else
                end += 2;
            std::string comment = src.substr(i, end - i);
            scanMarkers(comment, line, out.path, out);
            for (char cc : comment) {
                if (cc == '\n') {
                    clean += '\n';
                    ++line;
                } else {
                    clean += ' ';
                }
            }
            i = end;
        } else if (c == '"' || c == '\'') {
            char quote = c;
            clean += ' ';
            ++i;
            while (i < src.size() && src[i] != quote) {
                if (src[i] == '\\' && i + 1 < src.size()) {
                    clean += "  ";
                    i += 2;
                    continue;
                }
                if (src[i] == '\n') {
                    clean += '\n';
                    ++line;
                } else {
                    clean += ' ';
                }
                ++i;
            }
            if (i < src.size()) {
                clean += ' ';
                ++i;
            }
        } else {
            clean += c;
            ++i;
        }
    }
    return clean;
}

std::vector<Token>
tokenize(const std::string &clean)
{
    std::vector<Token> tokens;
    unsigned line = 1;
    std::size_t i = 0;
    while (i < clean.size()) {
        char c = clean[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
        } else if (isIdentChar(c)) {
            std::size_t start = i;
            while (i < clean.size() && isIdentChar(clean[i]))
                ++i;
            tokens.push_back({clean.substr(start, i - start), line});
        } else {
            tokens.push_back({std::string(1, c), line});
            ++i;
        }
    }
    return tokens;
}

} // namespace

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

SourceFile
parseSource(const std::string &path, const std::string &text)
{
    SourceFile file;
    file.path = path;
    collectIncludes(text, file);
    file.clean = stripAndScan(text, file);
    file.tokens = tokenize(file.clean);
    return file;
}

const std::string &
tok(const std::vector<Token> &tokens, std::size_t i)
{
    static const std::string empty;
    return i < tokens.size() ? tokens[i].text : empty;
}

bool
isMemberAccess(const std::vector<Token> &tokens, std::size_t i)
{
    if (i == 0)
        return false;
    const std::string &prev = tokens[i - 1].text;
    return prev == "." ||
           (prev == ">" && i >= 2 && tokens[i - 2].text == "-");
}

bool
isThisAccess(const std::vector<Token> &tokens, std::size_t i)
{
    if (i >= 2 && tokens[i - 1].text == "." &&
        tokens[i - 2].text == "this")
        return true;
    return i >= 3 && tokens[i - 1].text == ">" &&
           tokens[i - 2].text == "-" && tokens[i - 3].text == "this";
}

std::vector<Violation>
applyAllowances(std::vector<Violation> raw,
                const std::vector<Allowance> &allowances)
{
    std::set<std::pair<unsigned, std::string>> allowed;
    for (const Allowance &a : allowances) {
        allowed.emplace(a.line, a.rule);
        allowed.emplace(a.line + 1, a.rule);
    }
    std::vector<Violation> kept;
    for (Violation &v : raw)
        if (!allowed.count({v.line, v.rule}))
            kept.push_back(std::move(v));
    return kept;
}

namespace
{

/**
 * The name a declaration statement on `line` declares: the last
 * identifier seen at bracket depth zero before `=`, `{`, `,`, or
 * `;`. Empty when the line declares nothing nameable.
 */
std::string
declaredNameOnLine(const std::vector<Token> &tokens, unsigned line)
{
    int depth = 0;
    std::string last;
    for (const Token &t : tokens) {
        if (t.line != line)
            continue;
        const std::string &s = t.text;
        if (s == "(" || s == "<" || s == "[") {
            ++depth;
        } else if (s == ")" || s == ">" || s == "]") {
            --depth;
        } else if (depth <= 0 && (s == "=" || s == "{" || s == "," ||
                                  s == ";")) {
            if (!last.empty())
                return last;
        } else if (depth <= 0 && isIdentChar(s[0]) &&
                   !std::isdigit(static_cast<unsigned char>(s[0]))) {
            last = s;
        }
    }
    return {};
}

} // namespace

std::vector<AnnotatedMember>
annotatedMembers(const SourceFile &file,
                 std::vector<Violation> *marker_out)
{
    std::vector<AnnotatedMember> members;
    for (const Annotation &a : file.annotations) {
        if (a.kind != "guarded_by" && a.kind != "shard_local")
            continue;
        // Same line (trailing marker) first, then the line below
        // (marker above the declaration).
        bool resolved = false;
        for (unsigned line : {a.line, a.line + 1}) {
            std::string name = declaredNameOnLine(file.tokens, line);
            if (!name.empty()) {
                members.push_back({name, a.kind, a.arg, line});
                resolved = true;
                break;
            }
        }
        if (!resolved && marker_out)
            marker_out->push_back(
                {file.path, a.line, "lint-marker",
                 "memcon:" + a.kind +
                     " does not attach to a declaration on this or "
                     "the next line"});
    }
    return members;
}

std::vector<AnnotatedRegion>
annotatedRegions(const SourceFile &file,
                 std::vector<Violation> *marker_out)
{
    std::vector<AnnotatedRegion> regions;
    for (const Annotation &a : file.annotations) {
        if (a.kind != "shard_scope" && a.kind != "requires")
            continue;
        std::size_t begin = 0;
        while (begin < file.tokens.size() &&
               file.tokens[begin].line <= a.line)
            ++begin;
        std::size_t open = begin;
        while (open < file.tokens.size() &&
               file.tokens[open].text != "{")
            ++open;
        std::size_t close = open;
        int depth = 0;
        for (; close < file.tokens.size(); ++close) {
            if (file.tokens[close].text == "{") {
                ++depth;
            } else if (file.tokens[close].text == "}") {
                if (--depth == 0)
                    break;
            }
        }
        if (open >= file.tokens.size() ||
            close >= file.tokens.size()) {
            if (marker_out)
                marker_out->push_back(
                    {file.path, a.line, "lint-marker",
                     "memcon:" + a.kind +
                         " is not followed by a function body"});
            continue;
        }
        regions.push_back({a.kind, a.arg, a.line, begin, close});
    }
    return regions;
}

} // namespace memcon::analyze
