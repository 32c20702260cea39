#include "lint.hh"

#include <cctype>
#include <set>

namespace memcon::lint
{
namespace
{

using analyze::SourceFile;
using analyze::Token;
using analyze::tok;
using analyze::Violation;

bool
isUnorderedContainer(const std::string &name)
{
    return name == "unordered_map" || name == "unordered_set" ||
           name == "unordered_multimap" || name == "unordered_multiset";
}

/**
 * First pass: names declared (variable or member) with an unordered
 * container type in this file. Heuristic: after the container token
 * and its balanced template argument list, skip cv/ref/ptr tokens and
 * record the next identifier. Merged into an ordered set - the
 * caller may combine several files' declarations.
 */
void
collectUnorderedNames(const std::vector<Token> &tokens,
                      std::set<std::string> &names)
{
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!isUnorderedContainer(tokens[i].text))
            continue;
        std::size_t j = i + 1;
        if (j < tokens.size() && tokens[j].text == "<") {
            int depth = 0;
            for (; j < tokens.size(); ++j) {
                if (tokens[j].text == "<")
                    ++depth;
                else if (tokens[j].text == ">" && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        while (j < tokens.size() &&
               (tokens[j].text == "&" || tokens[j].text == "*" ||
                tokens[j].text == "const"))
            ++j;
        if (j < tokens.size() &&
            analyze::isIdentChar(tokens[j].text[0]) &&
            !std::isdigit(
                static_cast<unsigned char>(tokens[j].text[0])))
            names.insert(tokens[j].text);
    }
}

} // namespace

std::vector<Violation>
determinismPass(const SourceFile &file, const SourceFile *companion)
{
    const std::vector<Token> &tokens = file.tokens;
    std::set<std::string> unordered;
    collectUnorderedNames(tokens, unordered);
    if (companion)
        collectUnorderedNames(companion->tokens, unordered);

    std::vector<Violation> raw;
    auto flag = [&](unsigned line, const char *rule,
                    std::string message) {
        raw.push_back({file.path, line, rule, std::move(message)});
    };

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &t = tokens[i].text;
        unsigned line = tokens[i].line;

        if (t == "random_device") {
            flag(line, "random-device",
                 "std::random_device is nondeterministic; seed an "
                 "Rng (common/random.hh) with a fixed value");
        } else if ((t == "rand" || t == "srand") &&
                   tok(tokens, i + 1) == "(" &&
                   !analyze::isMemberAccess(tokens, i)) {
            flag(line, "rand",
                 t + "() uses hidden global RNG state; use "
                     "common/random.hh");
        } else if ((t == "time" || t == "clock") &&
                   tok(tokens, i + 1) == "(" &&
                   !analyze::isMemberAccess(tokens, i)) {
            flag(line, "wall-clock",
                 t + "() makes results depend on when they ran; "
                     "derive timestamps from simulated Ticks");
        } else if (t == "system_clock" ||
                   t == "high_resolution_clock" ||
                   t == "steady_clock") {
            flag(line, "wall-clock",
                 "std::chrono::" + t +
                     " is wall-clock state; results must not depend "
                     "on when they ran");
        } else if ((t == "begin" || t == "cbegin") &&
                   tok(tokens, i + 1) == "(" && i >= 2 &&
                   tokens[i - 1].text == "." &&
                   unordered.count(tokens[i - 2].text)) {
            flag(line, "unordered-iter",
                 "iterating '" + tokens[i - 2].text +
                     "' (unordered container) is order-unstable; use "
                     "common/ordered.hh");
        } else if (t == "catch" && tok(tokens, i + 1) == "(") {
            // Match the handler's parenthesized declaration, then
            // flag a body that is nothing but '{ }' - a swallowed
            // error. The violation is reported on the line of the
            // 'catch' keyword, where a lint:allow reads naturally.
            int depth = 0;
            std::size_t close = 0;
            for (std::size_t j = i + 1; j < tokens.size(); ++j) {
                if (tokens[j].text == "(") {
                    ++depth;
                } else if (tokens[j].text == ")" && --depth == 0) {
                    close = j;
                    break;
                }
            }
            if (close && tok(tokens, close + 1) == "{" &&
                tok(tokens, close + 2) == "}") {
                flag(line, "empty-catch",
                     "empty catch handler silently swallows the "
                     "error; handle it, rethrow, or justify with "
                     "lint:allow(empty-catch)");
            }
        } else if (t == "for" && tok(tokens, i + 1) == "(") {
            // Range-for: find the top-level ':' and check the range
            // expression for unordered names.
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < tokens.size(); ++j) {
                const std::string &u = tokens[j].text;
                if (u == "(" || u == "[" || u == "{") {
                    ++depth;
                } else if (u == ")" || u == "]" || u == "}") {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (u == ":" && depth == 1 && !colon &&
                           tok(tokens, j + 1) != ":" &&
                           tokens[j - 1].text != ":") {
                    colon = j;
                }
            }
            if (colon && close) {
                // The sanctioned remedy - wrapping the container in
                // ordered::sortedItems()/sortedKeys() - must not
                // itself trip the rule.
                bool remedied = false;
                for (std::size_t j = colon + 1; j < close; ++j) {
                    const std::string &u = tokens[j].text;
                    if (u == "sortedItems" || u == "sortedKeys") {
                        remedied = true;
                        break;
                    }
                }
                for (std::size_t j = colon + 1;
                     !remedied && j < close; ++j) {
                    if (unordered.count(tokens[j].text)) {
                        flag(line, "unordered-iter",
                             "range-for over '" + tokens[j].text +
                                 "' (unordered container) is "
                                 "order-unstable; use "
                                 "common/ordered.hh");
                        break;
                    }
                }
            }
        }
    }

    return raw;
}

} // namespace memcon::lint
