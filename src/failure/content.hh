/**
 * @file
 * Memory-content providers.
 *
 * The failure model evaluates cells against the bits stored around
 * them, so all content is expressed as a function from (logical row,
 * 64-bit word index) to a word value. Two families are provided:
 *
 *  - PatternContent: the classic manufacturing test patterns (solid,
 *    checkerboard, stripes, walking 1/0, seeded random), used for the
 *    exhaustive "ALL FAIL" profiling and for Figure 3's pattern sweep.
 *
 *  - ProgramContent: synthetic program data standing in for the
 *    paper's SPEC CPU2006 memory dumps. Each benchmark persona fixes
 *    the statistics that matter to data-dependent failures - the
 *    fraction of zero words, of small-integer words, and of
 *    pointer-like words (which set the bit-transition density) - and
 *    an epoch index advances the content every "100 M instructions",
 *    as in the paper's methodology.
 *
 * wordAt is the one content API: the failure model reads the cells
 * around each weak cell through it (via bit()), and the reference
 * read-back oracle in tests/ fills whole rows from it.
 */

#ifndef MEMCON_FAILURE_CONTENT_HH
#define MEMCON_FAILURE_CONTENT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace memcon::failure
{

/** Abstract source of memory content in logical address space. */
class ContentProvider
{
  public:
    virtual ~ContentProvider() = default;

    /** 64-bit word at the given logical row and word index. */
    virtual std::uint64_t wordAt(std::uint64_t row,
                                 std::uint64_t word_idx) const = 0;

    /** A printable identifier for reports. */
    virtual std::string name() const = 0;

    /** Single logical bit at (row, column). */
    bool
    bit(std::uint64_t row, std::uint64_t column) const
    {
        return (wordAt(row, column / 64) >> (column % 64)) & 1;
    }
};

/** The classic data patterns used in manufacturing-style testing. */
enum class PatternKind
{
    Solid0,
    Solid1,
    Checkerboard,    //!< 0101... within each row, phase alternating by row
    InvCheckerboard,
    RowStripe,       //!< rows alternate solid 0 / solid 1
    ColStripe,       //!< 8-bit wide column bands
    WalkingOne,      //!< a single 1 per 64-bit word, position = param
    WalkingZero,
    Random,          //!< seeded uniform random words, seed = param
};

std::string toString(PatternKind kind);

class PatternContent : public ContentProvider
{
  public:
    explicit PatternContent(PatternKind kind, std::uint64_t param = 0);

    std::uint64_t wordAt(std::uint64_t row,
                         std::uint64_t word_idx) const override;
    std::string name() const override;

    PatternKind kind() const { return patternKind; }

    /**
     * The canonical battery of num_patterns patterns: the eight
     * classics followed by seeded random patterns, matching the
     * "100 data patterns" sweep behind Figure 3.
     */
    static std::vector<PatternContent> battery(unsigned num_patterns);

  private:
    PatternKind patternKind;
    std::uint64_t param;
};

/** Content statistics characterising one benchmark's data. */
struct ContentPersona
{
    std::string name;
    double zeroWordFraction;    //!< whole-zero 64-bit words
    double smallWordFraction;   //!< small integers (low 16 bits used)
    double pointerWordFraction; //!< canonical-pointer-shaped words
    std::uint64_t seed;

    /**
     * The 20 SPEC CPU2006 benchmarks of Figure 4, ordered as in the
     * paper, with data statistics spanning zero-dominated (perlbench)
     * to high-entropy (astar) footprints.
     */
    static std::vector<ContentPersona> specSuite();

    /** Look up a persona by name; fatal if unknown. */
    static ContentPersona byName(const std::string &name);
};

class ProgramContent : public ContentProvider
{
  public:
    /**
     * @param persona content statistics
     * @param epoch   snapshot index; the paper dumps content every
     *                100 M instructions, so epoch advances rewrite a
     *                fraction of the words
     */
    ProgramContent(ContentPersona persona, std::uint64_t epoch = 0);

    std::uint64_t wordAt(std::uint64_t row,
                         std::uint64_t word_idx) const override;
    std::string name() const override;

    const ContentPersona &persona() const { return personaDesc; }
    std::uint64_t epoch() const { return epochIdx; }

    /**
     * Fraction of words rewritten per epoch advance; the rest keep
     * their epoch-0 value (programs mutate part of their footprint).
     */
    static constexpr double kEpochChurn = 0.35;

  private:
    std::uint64_t generateWord(std::uint64_t mix) const;

    ContentPersona personaDesc;
    std::uint64_t epochIdx;
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_CONTENT_HH
