/**
 * @file
 * Tests for the memcon_analyze framework (tools/memcon_analyze,
 * DESIGN.md §18): the rule registry, per-rule selection, JSON
 * output, and a fixture corpus for each pass -
 *
 *   determinism  random-device / rand / wall-clock / unordered-iter /
 *                empty-catch, plus lint-marker hygiene for malformed
 *                or unknown-rule markers (the `Lint` suite)
 *   concurrency  guarded_by / shard_local / shard_scope / requires
 *                annotations (firing, suppressed-by-allow, and
 *                annotation-present-but-clean for each)
 *   layering     the component DAG, including an injected back-edge
 *                fixture proving the pass fails closed, and an
 *                include-cycle fixture with the chain printed
 *   units        raw literals flowing into `_ms`/`_ns`/`_ticks` names
 *
 * plus the analyze.tree gate itself: the real src/ + bench/ +
 * tools/ + examples/ tree is clean under every pass.
 *
 * Fixtures are fed through analyzeSources(), the in-memory entry
 * point, so deliberate violations never live as files the tree
 * gates would see.
 */

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hh"
#include "registry.hh"

using memcon::analyze::analyzePaths;
using memcon::analyze::analyzeSources;
using memcon::analyze::AnalyzeOptions;
using memcon::analyze::AnalyzeResult;
using memcon::analyze::formatJson;
using memcon::analyze::formatText;
using memcon::analyze::Violation;

namespace
{

using Sources = std::vector<std::pair<std::string, std::string>>;

std::vector<std::string>
rulesOf(const std::vector<Violation> &vs)
{
    std::vector<std::string> rules;
    for (const Violation &v : vs)
        rules.push_back(v.rule);
    return rules;
}

std::vector<std::string>
rulesOf(const AnalyzeResult &r)
{
    return rulesOf(r.violations);
}

AnalyzeResult
analyzeOne(const std::string &path, const std::string &text,
           const AnalyzeOptions &options = {})
{
    return analyzeSources({{path, text}}, options);
}

/**
 * The determinism and marker-hygiene rules only (DESIGN.md §10). A
 * non-empty `companion` is supplied as the sibling .hh of `path`, the
 * declaration context the framework pairs with an implementation
 * file.
 */
std::vector<Violation>
lintOne(const std::string &path, const std::string &text,
        const std::string &companion = {})
{
    AnalyzeOptions options;
    options.only = {"random-device", "rand",        "wall-clock",
                    "unordered-iter", "empty-catch", "lint-marker"};
    Sources sources = {{path, text}};
    if (!companion.empty())
        sources.emplace_back(path.substr(0, path.rfind('.')) + ".hh",
                             companion);
    return analyzeSources(sources, options).violations;
}

// "random_device" etc., assembled so this file never contains the
// banned token itself.
const std::string kRandomDevice = std::string("random_") + "device";
const std::string kSteadyClock = std::string("steady_") + "clock";

} // namespace

// ---------------------------------------------------------------------
// Registry and selection
// ---------------------------------------------------------------------

TEST(AnalyzeRegistry, EveryRuleRegisteredOnce)
{
    const char *const expected[] = {
        "random-device", "rand",        "wall-clock",
        "unordered-iter", "empty-catch", "lint-marker",
        "guarded-by",     "shard-local", "layering",
        "unit-literal"};
    const auto &reg = memcon::analyze::ruleRegistry();
    ASSERT_EQ(reg.size(), std::size(expected));
    for (const char *name : expected) {
        EXPECT_TRUE(memcon::analyze::knownRule(name)) << name;
        int hits = 0;
        for (const auto &r : reg)
            if (r.name == name)
                ++hits;
        EXPECT_EQ(hits, 1) << name;
        for (const auto &r : reg) {
            EXPECT_EQ(r.severity, "error") << r.name;
            EXPECT_FALSE(r.summary.empty()) << r.name;
            EXPECT_FALSE(r.pass.empty()) << r.name;
        }
    }
    EXPECT_FALSE(memcon::analyze::knownRule("no-such-rule"));
}

TEST(AnalyzeSelection, OnlyAndSkipFilterByRule)
{
    // One fixture holding two different violations.
    const std::string src =
        "struct S { int x = 0; };\n"
        "void f() { try { g(); } catch (...) {} }\n"
        "double delay_ms = 16.0;\n";

    AnalyzeResult all = analyzeOne("fix.cc", src);
    EXPECT_EQ(rulesOf(all), (std::vector<std::string>{
                                "empty-catch", "unit-literal"}));

    AnalyzeOptions only;
    only.only = {"unit-literal"};
    EXPECT_EQ(rulesOf(analyzeOne("fix.cc", src, only)),
              std::vector<std::string>{"unit-literal"});

    AnalyzeOptions skip;
    skip.skip = {"unit-literal"};
    EXPECT_EQ(rulesOf(analyzeOne("fix.cc", src, skip)),
              std::vector<std::string>{"empty-catch"});
}

TEST(AnalyzeFormat, JsonListsViolationsAndFileCount)
{
    AnalyzeResult r = analyzeOne("fix.cc", "double t_ns = 5;\n");
    ASSERT_EQ(r.violations.size(), 1u);
    const std::string json = formatJson(r);
    EXPECT_NE(json.find("\"rule\": \"unit-literal\""),
              std::string::npos);
    EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
    // Text mode is the problem-matcher format.
    EXPECT_NE(formatText(r).find("fix.cc:1: [unit-literal]"),
              std::string::npos);

    AnalyzeResult clean = analyzeOne("ok.cc", "int x = 1;\n");
    EXPECT_NE(formatJson(clean).find("\"violations\": []"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Determinism pass and marker hygiene: every banned pattern flagged
// exactly once, the lint:allow escape hatch, malformed markers, and
// the companion-header declaration lookup. The banned spellings are
// assembled from fragments so this file stays clean if the gate ever
// widens to tests/.
// ---------------------------------------------------------------------

TEST(Lint, CleanFilePasses)
{
    const std::string src = R"(
        #include <vector>
        int sum(const std::vector<int> &v) {
            int s = 0;
            for (int x : v)
                s += x;
            return s;
        }
    )";
    EXPECT_TRUE(lintOne("clean.cc", src).empty());
}

TEST(Lint, RandomDeviceFlaggedOnce)
{
    const std::string src = "#include <random>\n"
                            "unsigned seed() {\n"
                            "    std::" + kRandomDevice + " rd;\n"
                            "    return rd();\n"
                            "}\n";
    auto vs = lintOne("bad.cc", src);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "random-device");
    EXPECT_EQ(vs[0].line, 3u);
    EXPECT_EQ(vs[0].file, "bad.cc");
}

TEST(Lint, LibcRandFlagged)
{
    const std::string src = "#include <cstdlib>\n"
                            "int r1() { return std::rand(); }\n"
                            "void r2(unsigned s) { srand(s); }\n";
    auto vs = lintOne("bad.cc", src);
    EXPECT_EQ(rulesOf(vs), (std::vector<std::string>{"rand", "rand"}));
    // An identifier that merely contains "rand" is not a call of it.
    EXPECT_TRUE(
        lintOne("ok.cc", "int operand(int rando) { return rando; }")
            .empty());
    // Nor is a member function named rand on some other object.
    EXPECT_TRUE(
        lintOne("ok.cc", "int f(Rng &g) { return g.rand(); }")
            .empty());
}

TEST(Lint, WallClockSeedingFlagged)
{
    auto vs = lintOne(
        "bad.cc", "#include <ctime>\n"
                  "long now() { return time(nullptr); }\n");
    EXPECT_EQ(rulesOf(vs), std::vector<std::string>{"wall-clock"});

    vs = lintOne("bad.cc",
                    "auto t0 = std::chrono::" + kSteadyClock +
                        "::now();\n");
    EXPECT_EQ(rulesOf(vs), std::vector<std::string>{"wall-clock"});

    // Words like "time" in comments and strings never trip the rule.
    EXPECT_TRUE(lintOne("ok.cc",
                           "// total interval time (Figure 12)\n"
                           "const char *s = \"time(s)\";\n")
                    .empty());
}

TEST(Lint, UnorderedIterationFlagged)
{
    const std::string decl =
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> table;\n";

    auto vs = lintOne("bad.cc", decl +
                                       "int walk() {\n"
                                       "    int s = 0;\n"
                                       "    for (auto &kv : table)\n"
                                       "        s += kv.second;\n"
                                       "    return s;\n"
                                       "}\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "unordered-iter");
    EXPECT_EQ(vs[0].line, 5u);

    // Explicit iterator loops are the same hazard.
    vs = lintOne("bad.cc",
                    decl + "auto it = table.begin();\n");
    EXPECT_EQ(rulesOf(vs), std::vector<std::string>{"unordered-iter"});

    // find()/end() membership idiom is deterministic and stays legal.
    EXPECT_TRUE(
        lintOne("ok.cc",
                   decl + "bool has(int k) {\n"
                          "    return table.find(k) != table.end();\n"
                          "}\n")
            .empty());

    // Ordered containers iterate deterministically; never flagged.
    EXPECT_TRUE(lintOne("ok.cc",
                           "#include <map>\n"
                           "std::map<int, int> m;\n"
                           "int f() {\n"
                           "    int s = 0;\n"
                           "    for (auto &kv : m)\n"
                           "        s += kv.second;\n"
                           "    return s;\n"
                           "}\n")
                    .empty());

    // The sanctioned remedy - ordered::sortedItems()/sortedKeys()
    // around the container - iterates in key order and is legal.
    EXPECT_TRUE(
        lintOne("ok.cc",
                   decl +
                       "int walk() {\n"
                       "    int s = 0;\n"
                       "    for (auto &[k, v] : "
                       "ordered::sortedItems(table))\n"
                       "        s += v;\n"
                       "    for (int k : ordered::sortedKeys(table))\n"
                       "        s += k;\n"
                       "    return s;\n"
                       "}\n")
            .empty());
}

TEST(Lint, EmptyCatchFlagged)
{
    // The crash-safety hazard: an empty handler turns an error into
    // silence. Flagged once, on the catch keyword's line.
    const std::string src = "void f() {\n"
                            "    try {\n"
                            "        g();\n"
                            "    } catch (...) {\n"
                            "    }\n"
                            "}\n";
    auto vs = lintOne("bad.cc", src);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "empty-catch");
    EXPECT_EQ(vs[0].line, 4u);

    // A typed empty handler is the same silence.
    const std::string typed =
        "void f() { try { g(); } catch (const E &) {} }\n";
    EXPECT_EQ(rulesOf(lintOne("bad.cc", typed)),
              std::vector<std::string>{"empty-catch"});

    // A handler that does anything - even just a comment won't do,
    // since comments are stripped, but a statement will - is legal.
    const std::string handled = "void f() {\n"
                                "    try { g(); }\n"
                                "    catch (...) { report(); }\n"
                                "}\n";
    EXPECT_TRUE(lintOne("ok.cc", handled).empty());

    // Rethrow is legal.
    const std::string rethrow =
        "void f() { try { g(); } catch (...) { throw; } }\n";
    EXPECT_TRUE(lintOne("ok.cc", rethrow).empty());

    // The escape hatch works where ignoring really is correct.
    const std::string allowed =
        "void f() {\n"
        "    try { g(); }\n"
        "    // lint:allow(empty-catch) - best-effort cleanup\n"
        "    catch (...) {}\n"
        "}\n";
    EXPECT_TRUE(lintOne("ok.cc", allowed).empty());
}

TEST(Lint, CompanionHeaderDeclaresTheContainer)
{
    // The hazard the ordering satellites fixed: the member lives in
    // the class header, the iteration in the .cc.
    const std::string header = "#include <unordered_map>\n"
                               "struct Engine {\n"
                               "    std::unordered_map<int, int> "
                               "sessions;\n"
                               "};\n";
    const std::string source = "int Engine_count(Engine &e) {\n"
                               "    int n = 0;\n"
                               "    for (auto &kv : e.sessions)\n"
                               "        n += kv.second;\n"
                               "    return n;\n"
                               "}\n";
    // Without the header context the scanner cannot know.
    EXPECT_TRUE(lintOne("engine.cc", source).empty());
    // With it, the iteration is flagged.
    auto vs = lintOne("engine.cc", source, header);
    EXPECT_EQ(rulesOf(vs), std::vector<std::string>{"unordered-iter"});
}

TEST(Lint, AllowEscapeSuppressesSameAndNextLine)
{
    const std::string same_line =
        "std::" + kRandomDevice + " rd; // lint:allow(random-device)\n";
    EXPECT_TRUE(lintOne("ok.cc", same_line).empty());

    const std::string line_above =
        "// lint:allow(random-device) - justified here\n"
        "std::" + kRandomDevice + " rd;\n";
    EXPECT_TRUE(lintOne("ok.cc", line_above).empty());

    // The escape names a rule; a different rule's escape is inert.
    const std::string wrong_rule =
        "// lint:allow(wall-clock)\n"
        "std::" + kRandomDevice + " rd;\n";
    EXPECT_EQ(rulesOf(lintOne("bad.cc", wrong_rule)),
              std::vector<std::string>{"random-device"});

    // And it does not leak further down the file.
    const std::string too_far =
        "// lint:allow(random-device)\n"
        "int x;\n"
        "std::" + kRandomDevice + " rd;\n";
    EXPECT_EQ(rulesOf(lintOne("bad.cc", too_far)),
              std::vector<std::string>{"random-device"});
}

TEST(Lint, EachRuleOncePerOffendingFixture)
{
    // One fixture per rule; each yields exactly its own violation.
    struct Fixture
    {
        std::string rule;
        std::string code;
    };
    const Fixture fixtures[] = {
        {"random-device", "std::" + kRandomDevice + " rd;\n"},
        {"rand", "int x = rand();\n"},
        {"wall-clock", "long t = time(nullptr);\n"},
        {"unordered-iter",
         "#include <unordered_set>\n"
         "std::unordered_set<int> seen;\n"
         "void f() { for (int x : seen) (void)x; }\n"},
        {"empty-catch", "void f() { try { g(); } catch (...) {} }\n"},
    };
    for (const Fixture &f : fixtures) {
        auto vs = lintOne("fixture.cc", f.code);
        ASSERT_EQ(vs.size(), 1u) << f.rule;
        EXPECT_EQ(vs[0].rule, f.rule);
    }
}

TEST(Lint, ServiceSupervisionWallClockNeedsTheAllowEscape)
{
    // The memcond service idiom: tenant round tasks time themselves
    // with the wall clock to feed the watchdog's adaptive deadline.
    // That is supervision, never a metric - but the lint cannot know
    // that, so the code must carry the lint:allow(wall-clock) escape
    // exactly where src/service/memcond.cc does.
    const std::string bare =
        "void runTask() {\n"
        "    const auto t0 = std::chrono::" + kSteadyClock +
        "::now();\n"
        "    work();\n"
        "    const auto t1 = std::chrono::" + kSteadyClock +
        "::now();\n"
        "    watchdog.endTask(0, true, ms(t1 - t0));\n"
        "}\n";
    EXPECT_EQ(rulesOf(lintOne("service.cc", bare)),
              (std::vector<std::string>{"wall-clock", "wall-clock"}));

    const std::string allowed =
        "void runTask() {\n"
        "    // Supervision only - never a metric.\n"
        "    // lint:allow(wall-clock)\n"
        "    const auto t0 = std::chrono::" + kSteadyClock +
        "::now();\n"
        "    work();\n"
        "    // lint:allow(wall-clock) - supervision only.\n"
        "    const auto t1 = std::chrono::" + kSteadyClock +
        "::now();\n"
        "    watchdog.endTask(0, true, ms(t1 - t0));\n"
        "}\n";
    EXPECT_TRUE(lintOne("service.cc", allowed).empty());

    // The escape reaches exactly one line: a justification paragraph
    // between the marker and the call re-exposes the violation, so
    // the allow must sit directly on or above the offending line.
    const std::string too_far =
        "void runTask() {\n"
        "    // lint:allow(wall-clock) - supervision only, feeds\n"
        "    // the watchdog median, never a metric.\n"
        "    const auto t0 = std::chrono::" + kSteadyClock +
        "::now();\n"
        "}\n";
    EXPECT_EQ(rulesOf(lintOne("service.cc", too_far)),
              (std::vector<std::string>{"wall-clock"}));
}

TEST(Lint, MalformedAllowMarkerIsReportedNotDropped)
{
    // The historical bug: an unterminated allow marker parsed as
    // "no marker here" and the suppression silently never engaged.
    // Now it is a violation of its own, so the author finds out.
    const std::string unterminated =
        "// lint:allow(random-device - note the missing paren\n"
        "std::" + kRandomDevice + " rd;\n";
    auto vs = lintOne("bad.cc", unterminated);
    ASSERT_EQ(vs.size(), 2u) << formatText({vs});
    EXPECT_EQ(vs[0].rule, "lint-marker");
    EXPECT_EQ(vs[0].line, 1u);
    // ...and the intended suppression is indeed inert.
    EXPECT_EQ(vs[1].rule, "random-device");
}

TEST(Lint, TwoAllowMarkersOnOneLineBothRegister)
{
    // Also historical: the scanner failed to advance past a matched
    // marker, so a second marker on the same line was lost.
    const std::string two =
        "// lint:allow(random-device) lint:allow(wall-clock)\n"
        "std::" + kRandomDevice + " rd; long t = time(nullptr);\n";
    EXPECT_TRUE(lintOne("ok.cc", two).empty())
        << formatText({lintOne("ok.cc", two)});
}

TEST(Lint, MalformedMarkerItselfSuppressible)
{
    // lint-marker is a rule like any other: a justified allow on the
    // same line silences it (useful for prose that must spell out a
    // broken marker, as this corpus does). The suppression must come
    // first so the broken marker cannot steal its closing paren.
    const std::string hushed =
        "// lint:allow(lint-marker) here is one: lint:allow(broken\n";
    EXPECT_TRUE(lintOne("ok.cc", hushed).empty());
    // Without the suppression the same line reports.
    const std::string bare = "// here is one: lint:allow(broken\n";
    EXPECT_EQ(rulesOf(lintOne("bad.cc", bare)),
              std::vector<std::string>{"lint-marker"});
}

// ---------------------------------------------------------------------
// Concurrency pass
// ---------------------------------------------------------------------

namespace
{

const char kGuardedHeader[] =
    "#include <mutex>\n"
    "class Pool {\n"
    "  public:\n"
    "    void submit();\n"
    "    void broken();\n"
    "  private:\n"
    "    int pending = 0; // memcon:guarded_by(mtx)\n"
    "    std::mutex mtx;\n"
    "};\n";

} // namespace

TEST(AnalyzeConcurrency, GuardedMemberOutsideLockFires)
{
    const std::string impl = "#include \"pool.hh\"\n"
                             "void Pool::broken() { pending = 1; }\n";
    AnalyzeResult r =
        analyzeSources({{"pool.hh", kGuardedHeader}, {"pool.cc", impl}},
                       {});
    ASSERT_EQ(r.violations.size(), 1u) << formatText(r);
    EXPECT_EQ(r.violations[0].rule, "guarded-by");
    EXPECT_EQ(r.violations[0].file, "pool.cc");
    EXPECT_EQ(r.violations[0].line, 2u);
}

TEST(AnalyzeConcurrency, GuardedMemberUnderLockIsClean)
{
    // Each RAII guard type is recognized, including predicate
    // lambdas inside the locked scope (condition-variable idiom).
    const std::string impl =
        "#include \"pool.hh\"\n"
        "void Pool::submit() {\n"
        "    std::unique_lock<std::mutex> lock(mtx);\n"
        "    cv.wait(lock, [this] { return pending < 4; });\n"
        "    pending++;\n"
        "}\n"
        "void Pool::other() {\n"
        "    std::lock_guard<std::mutex> lk(mtx);\n"
        "    pending = 0;\n"
        "}\n"
        "void Pool::third() {\n"
        "    std::scoped_lock lk(mtx);\n"
        "    this->pending = 2;\n"
        "}\n";
    AnalyzeResult r =
        analyzeSources({{"pool.hh", kGuardedHeader}, {"pool.cc", impl}},
                       {});
    EXPECT_TRUE(r.violations.empty()) << formatText(r);
}

TEST(AnalyzeConcurrency, LockReleasedAtScopeExit)
{
    // The guard dies with its block; a use after the block fires.
    const std::string impl =
        "#include \"pool.hh\"\n"
        "void Pool::submit() {\n"
        "    {\n"
        "        std::lock_guard<std::mutex> lk(mtx);\n"
        "        pending = 1;\n"
        "    }\n"
        "    pending = 2;\n"
        "}\n";
    AnalyzeResult r =
        analyzeSources({{"pool.hh", kGuardedHeader}, {"pool.cc", impl}},
                       {});
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"guarded-by"});
    EXPECT_EQ(r.violations[0].line, 7u);
}

TEST(AnalyzeConcurrency, WrongMutexDoesNotCount)
{
    const std::string impl =
        "#include \"pool.hh\"\n"
        "void Pool::submit() {\n"
        "    std::lock_guard<std::mutex> lk(otherMtx);\n"
        "    pending = 1;\n"
        "}\n";
    AnalyzeResult r =
        analyzeSources({{"pool.hh", kGuardedHeader}, {"pool.cc", impl}},
                       {});
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"guarded-by"});
}

TEST(AnalyzeConcurrency, RequiresRegionCountsAsHeld)
{
    // The *Locked-helper idiom: callers hold the lock, the helper
    // itself carries a requires annotation instead of re-locking.
    const std::string impl =
        "#include \"pool.hh\"\n"
        "// memcon:requires(mtx) - every caller holds the lock\n"
        "int Pool::pendingLocked() const { return pending; }\n";
    AnalyzeResult r =
        analyzeSources({{"pool.hh", kGuardedHeader}, {"pool.cc", impl}},
                       {});
    EXPECT_TRUE(r.violations.empty()) << formatText(r);
}

TEST(AnalyzeConcurrency, GuardedViolationSuppressedByAllow)
{
    const std::string impl =
        "#include \"pool.hh\"\n"
        "void Pool::broken() {\n"
        "    // lint:allow(guarded-by) - single-threaded teardown\n"
        "    pending = 1;\n"
        "}\n";
    AnalyzeResult r =
        analyzeSources({{"pool.hh", kGuardedHeader}, {"pool.cc", impl}},
                       {});
    EXPECT_TRUE(r.violations.empty()) << formatText(r);
}

TEST(AnalyzeConcurrency, ShardLocalOutsideShardScopeFires)
{
    const std::string src =
        "struct Ring {\n"
        "    int slots[8]; // memcon:shard_local\n"
        "    // memcon:shard_scope - audited accessor\n"
        "    int get(int i) const { return slots[i]; }\n"
        "    int leak(int i) const { return slots[i]; }\n"
        "};\n";
    AnalyzeResult r = analyzeOne("ring.hh", src);
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"shard-local"});
    EXPECT_EQ(r.violations[0].line, 5u);
}

TEST(AnalyzeConcurrency, ShardLocalQualifiedAccessAlsoChecked)
{
    // Unlike guarded-by, shard-local audits qualified accesses too:
    // shard state reached through any object must still come from an
    // annotated accessor.
    const std::string src =
        "struct Ring { int slots[8]; };\n"
        "// memcon:shard_local\n"
        "Ring ring;\n"
        "int peek(int i) { return ring.slots[i]; }\n";
    // 'slots' itself is not annotated here - 'ring' is; access via
    // ring.<anything> is fine, but naming ring outside a shard scope
    // is not.
    AnalyzeResult r = analyzeOne("ring.cc", src);
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"shard-local"});
}

TEST(AnalyzeConcurrency, ShardScopeCleanAndAllowEscape)
{
    const std::string clean =
        "struct Ring {\n"
        "    int slots[8]; // memcon:shard_local\n"
        "    // memcon:shard_scope\n"
        "    int get(int i) const { return slots[i]; }\n"
        "};\n";
    EXPECT_TRUE(analyzeOne("ring.hh", clean).violations.empty());

    const std::string allowed =
        "struct Ring {\n"
        "    int slots[8]; // memcon:shard_local\n"
        "    // lint:allow(shard-local) - debug dump, quiescent only\n"
        "    int dump() const { return slots[0]; }\n"
        "};\n";
    EXPECT_TRUE(analyzeOne("ring.hh", allowed).violations.empty());
}

TEST(AnalyzeConcurrency, AnnotationMustAttach)
{
    // An annotation that resolves to no declaration is marker-lint,
    // not a silent no-op.
    const std::string src = "// memcon:shard_local\n"
                            "\n"
                            "int x = 0;\n";
    AnalyzeResult r = analyzeOne("bad.hh", src);
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"lint-marker"});

    const std::string missing_arg = "int y = 0; // memcon:guarded_by\n";
    r = analyzeOne("bad.hh", missing_arg);
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"lint-marker"});
}

// ---------------------------------------------------------------------
// Layering pass
// ---------------------------------------------------------------------

TEST(AnalyzeLayering, InjectedBackEdgeFailsClosed)
{
    // The acceptance fixture: a dram file reaching up into core is
    // rejected with the offending edge named.
    Sources tree = {
        {"src/dram/timing.hh", "#include \"common/units.hh\"\n"},
        {"src/dram/bad.hh", "#include \"core/engine.hh\"\n"},
        {"src/core/engine.hh", "#include \"dram/timing.hh\"\n"},
        {"src/common/units.hh", "int u;\n"},
    };
    AnalyzeResult r = analyzeSources(tree, {});
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"layering"});
    EXPECT_EQ(r.violations[0].file, "src/dram/bad.hh");
    EXPECT_EQ(r.violations[0].line, 1u);
    EXPECT_NE(r.violations[0].message.find("back-edge"),
              std::string::npos);
    EXPECT_NE(r.violations[0].message.find("core/engine.hh"),
              std::string::npos);
}

TEST(AnalyzeLayering, LegalEdgesAndSiblingsAreClean)
{
    // Every downward edge plus a same-rank sibling edge (failure ->
    // trace) is legal.
    Sources tree = {
        {"src/common/units.hh", "int u;\n"},
        {"src/dram/timing.hh", "#include \"common/units.hh\"\n"},
        {"src/failure/model.hh", "#include \"dram/timing.hh\"\n"
                                 "#include \"trace/app.hh\"\n"},
        {"src/trace/app.hh", "#include \"dram/timing.hh\"\n"},
        {"src/sim/system.hh", "#include \"failure/model.hh\"\n"},
        {"src/core/engine.hh", "#include \"sim/system.hh\"\n"},
        {"src/service/memcond.hh", "#include \"core/engine.hh\"\n"},
        {"bench/run.cc", "#include \"service/memcond.hh\"\n"},
        {"tools/x/main.cc", "#include \"sim/system.hh\"\n"},
        {"examples/demo.cpp", "#include \"core/engine.hh\"\n"},
    };
    AnalyzeResult r = analyzeSources(tree, {});
    EXPECT_TRUE(r.violations.empty()) << formatText(r);
}

TEST(AnalyzeLayering, TestsAreExempt)
{
    Sources tree = {
        {"src/service/memcond.hh", "int m;\n"},
        {"tests/test_service.cc",
         "#include \"service/memcond.hh\"\n"},
    };
    EXPECT_TRUE(analyzeSources(tree, {}).violations.empty());
}

TEST(AnalyzeLayering, IncludeCycleReportedWithChain)
{
    // Same-rank siblings may include each other - but not in a
    // cycle. The chain is printed so the offending loop is readable
    // from the one violation line.
    Sources tree = {
        {"src/failure/a.hh", "#include \"trace/b.hh\"\n"},
        {"src/trace/b.hh", "#include \"failure/a.hh\"\n"},
    };
    AnalyzeResult r = analyzeSources(tree, {});
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"layering"});
    EXPECT_NE(r.violations[0].message.find("include cycle"),
              std::string::npos);
    EXPECT_NE(r.violations[0].message.find("src/failure/a.hh"),
              std::string::npos);
    EXPECT_NE(r.violations[0].message.find("src/trace/b.hh"),
              std::string::npos);
}

TEST(AnalyzeLayering, BackEdgeSuppressedByJustifiedAllow)
{
    // The escape hatch: a justified allow on the offending line. The
    // edge (sim -> core) is a back-edge without it.
    Sources tree = {
        {"src/sim/controller.hh", "#include \"core/online.hh\"\n"},
        {"src/core/online.hh", "int c;\n"},
    };
    EXPECT_EQ(rulesOf(analyzeSources(tree, {})),
              std::vector<std::string>{"layering"});
    tree[0].second = "#include \"core/online.hh\" // lint:allow(layering)\n";
    EXPECT_TRUE(analyzeSources(tree, {}).violations.empty());
}

// ---------------------------------------------------------------------
// Units pass
// ---------------------------------------------------------------------

TEST(AnalyzeUnits, RawLiteralIntoSuffixedNameFires)
{
    struct Fixture
    {
        const char *code;
        unsigned line;
    };
    const Fixture firing[] = {
        {"double refresh_ms = 16.0;\n", 1},
        {"struct C { unsigned poll_ns{500}; };\n", 1},
        {"void f() {\n    long budget_ticks = 1024;\n}\n", 2},
        {"void g(double timeout_ms = 5.0);\n", 1},
    };
    for (const Fixture &f : firing) {
        AnalyzeResult r = analyzeOne("fix.cc", f.code);
        ASSERT_EQ(rulesOf(r), std::vector<std::string>{"unit-literal"})
            << f.code << formatText(r);
        EXPECT_EQ(r.violations[0].line, f.line) << f.code;
    }
}

TEST(AnalyzeUnits, StrongTypesAndExpressionsAreClean)
{
    const char *const clean[] = {
        // The strong constructor is the sanctioned spelling.
        "TimeMs refresh_ms = TimeMs{16.0};\n",
        "Tick horizon_ticks{1024};\n",
        // Expressions already had to think about units.
        "double scaled_ms = 2.0 * base;\n",
        "double inv_ns = 1.0 / freq;\n",
        // Unsuffixed names are out of scope.
        "double refresh = 16.0;\n",
        // Comparisons are not initializers.
        "bool late(double t_ms) { return t_ms > 5; }\n",
    };
    for (const char *code : clean)
        EXPECT_TRUE(analyzeOne("fix.cc", code).violations.empty())
            << code;
}

TEST(AnalyzeUnits, UnitsHeaderItselfIsExempt)
{
    const std::string raw = "double conv_ms = 1000.0;\n";
    EXPECT_TRUE(
        analyzeOne("src/common/units.hh", raw).violations.empty());
    EXPECT_EQ(rulesOf(analyzeOne("src/common/other.hh", raw)),
              std::vector<std::string>{"unit-literal"});
}

TEST(AnalyzeUnits, AllowEscapeWorks)
{
    const std::string allowed =
        "// lint:allow(unit-literal) - protocol constant, unitless\n"
        "double frame_ms = 12.5;\n";
    EXPECT_TRUE(analyzeOne("fix.cc", allowed).violations.empty());
}

// ---------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------

TEST(AnalyzeTree, RealTreeIsCleanUnderEveryPass)
{
    // The analyze.tree ctest, inspectable from a debugger: all four
    // shipping trees, every registered pass, zero violations. The
    // analyzer lints itself - tools/ is inside the sweep.
    AnalyzeResult r = analyzePaths(
        {std::string(MEMCON_SOURCE_DIR) + "/src",
         std::string(MEMCON_SOURCE_DIR) + "/bench",
         std::string(MEMCON_SOURCE_DIR) + "/tools",
         std::string(MEMCON_SOURCE_DIR) + "/examples"},
        {});
    EXPECT_TRUE(r.violations.empty()) << formatText(r);
    EXPECT_GT(r.filesScanned, 100u);
}

TEST(AnalyzeTree, NoLayeringAllowances)
{
    // The component DAG closes: no file in the shipping trees needs
    // a layering allow to get past the pass.
    using memcon::analyze::formatAllowances;
    using memcon::analyze::listAllowancesInPaths;
    AnalyzeOptions only;
    only.only = {"layering"};
    auto sites = listAllowancesInPaths(
        {std::string(MEMCON_SOURCE_DIR) + "/src",
         std::string(MEMCON_SOURCE_DIR) + "/bench",
         std::string(MEMCON_SOURCE_DIR) + "/tools",
         std::string(MEMCON_SOURCE_DIR) + "/examples"},
        only);
    EXPECT_TRUE(sites.empty()) << formatAllowances(sites);
}

// ---------------------------------------------------------------------
// The suppression inventory (--list-allows)
// ---------------------------------------------------------------------

TEST(AnalyzeAllowInventory, EnumeratesEveryMarkerWithFileLineRule)
{
    using memcon::analyze::AllowanceSite;
    using memcon::analyze::listAllowances;

    const Sources sources = {
        {"b.cc",
         "int x;\n"
         "// lint:allow(unit-literal) - protocol constant\n"
         "double frame_ms = 12.5;\n"
         "// lint:allow(guarded-by) - teardown\n"
         "int y;\n"},
        {"a.cc",
         "// lint:allow(unit-literal) - port number\n"
         "double poll_ms = 3.0;\n"},
        {"clean.cc", "int z;\n"},
    };
    std::vector<AllowanceSite> sites = listAllowances(sources, {});

    ASSERT_EQ(sites.size(), 3u);
    // Sorted by (file, line, rule), independent of input order.
    EXPECT_EQ(sites[0].file, "a.cc");
    EXPECT_EQ(sites[0].line, 1u);
    EXPECT_EQ(sites[0].rule, "unit-literal");
    EXPECT_EQ(sites[1].file, "b.cc");
    EXPECT_EQ(sites[1].line, 2u);
    EXPECT_EQ(sites[1].rule, "unit-literal");
    EXPECT_EQ(sites[2].file, "b.cc");
    EXPECT_EQ(sites[2].line, 4u);
    EXPECT_EQ(sites[2].rule, "guarded-by");
}

TEST(AnalyzeAllowInventory, RuleSelectionFiltersTheInventory)
{
    using memcon::analyze::listAllowances;

    const Sources sources = {
        {"f.cc",
         "// lint:allow(unit-literal) - one\n"
         "double a_ms = 1.0;\n"
         "// lint:allow(guarded-by) - two\n"
         "int b;\n"},
    };

    AnalyzeOptions only;
    only.only = {"unit-literal"};
    auto sites = listAllowances(sources, only);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].rule, "unit-literal");

    AnalyzeOptions skip;
    skip.skip = {"unit-literal"};
    sites = listAllowances(sources, skip);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].rule, "guarded-by");
}

TEST(AnalyzeAllowInventory, FormatsReportAndJson)
{
    using memcon::analyze::formatAllowances;
    using memcon::analyze::formatAllowancesJson;
    using memcon::analyze::listAllowances;

    const Sources sources = {
        {"f.cc",
         "// lint:allow(unit-literal) - a\n"
         "double a_ms = 1.0;\n"
         "// lint:allow(unit-literal) - b\n"
         "double b_ms = 2.0;\n"},
    };
    auto sites = listAllowances(sources, {});

    const std::string text = formatAllowances(sites);
    EXPECT_NE(text.find("f.cc:1: lint:allow(unit-literal)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("unit-literal: 2"), std::string::npos) << text;
    EXPECT_NE(text.find("2 allowance(s)"), std::string::npos) << text;

    const std::string json = formatAllowancesJson(sites);
    EXPECT_NE(json.find("\"file\": \"f.cc\""), std::string::npos);
    EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"total\": 2"), std::string::npos);

    // The empty inventory still renders valid output.
    EXPECT_NE(formatAllowances({}).find("0 allowance(s)"),
              std::string::npos);
    EXPECT_NE(formatAllowancesJson({}).find("\"total\": 0"),
              std::string::npos);
}

TEST(AnalyzeAllowInventory, UnknownRuleMarkerIsReportedNotListed)
{
    using memcon::analyze::listAllowances;

    // A marker naming no registered rule used to register as an
    // allowance for that name: inert, yet counted in the inventory.
    // It is a lint-marker violation instead, and never an allowance.
    const Sources placeholder = {
        {"f.cc", "// lint:allow(<rule>)\nint x;\n"}};
    AnalyzeResult r = analyzeSources(placeholder, {});
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"lint-marker"})
        << formatText(r);
    EXPECT_EQ(r.violations[0].line, 1u);
    EXPECT_TRUE(listAllowances(placeholder, {}).empty());

    // A misspelled suppression leaves the violation it meant to hide.
    const Sources misspelled = {
        {"f.cc", "// lint:allow(wallclock)\nlong t = time(nullptr);\n"}};
    EXPECT_EQ(rulesOf(analyzeSources(misspelled, {})),
              (std::vector<std::string>{"lint-marker", "wall-clock"}));
    EXPECT_TRUE(listAllowances(misspelled, {}).empty());
}

TEST(AnalyzeAllowInventory, RealTreeInventoryMatchesMarkerGrep)
{
    // The inventory over the real tree: every site it reports must
    // genuinely carry the marker text on that line of that file, and
    // the committed suppressions it knows about must be present.
    using memcon::analyze::listAllowancesInPaths;
    using memcon::analyze::readFileText;

    auto sites = listAllowancesInPaths(
        {std::string(MEMCON_SOURCE_DIR) + "/src",
         std::string(MEMCON_SOURCE_DIR) + "/bench",
         std::string(MEMCON_SOURCE_DIR) + "/tools",
         std::string(MEMCON_SOURCE_DIR) + "/examples"},
        {});

    for (const auto &site : sites) {
        std::string text;
        ASSERT_TRUE(readFileText(site.file, &text)) << site.file;
        std::istringstream lines(text);
        std::string line;
        for (unsigned n = 0; n < site.line; ++n)
            ASSERT_TRUE(std::getline(lines, line)) << site.file;
        EXPECT_NE(line.find("lint:allow(" + site.rule + ")"),
                  std::string::npos)
            << site.file << ":" << site.line;
    }
}
