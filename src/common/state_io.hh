/**
 * @file
 * Typed state records: the line encoding a component uses to save its
 * complete state and to restore it into a freshly built instance.
 *
 * A record is a list of lines. Each line is a tag followed by
 * space-separated `key=value` tokens, written and read in one fixed
 * order, so a component's save and load functions list the same
 * fields in the same sequence:
 *
 *   mc drain=0 trefi=6240 red=0.5 next=6240,6240
 *
 * Values are typed by the call that reads them: an unsigned integer
 * (decimal, no sign, no leading zero), a flag (0/1), a finite double
 * (shortest round-trip form, the only form the reader takes, so
 * decode then encode reproduces the bytes), a bit vector (fixed-width lowercase hex words), or a
 * comma-separated list of unsigned tuples whose elements are joined by
 * ':'. A list has no trailing comma and carries no count: the reader
 * appends element by element, so nothing in a record sizes an
 * allocation before the values it claims are there.
 *
 * The encoding is history-independent by contract: a component writes
 * its logical state (sets in ascending order, maps by key), never a
 * container's internal layout, so two instances in equal states write
 * equal bytes however they got there, and restore then save is the
 * identity. StateReader is strict - a missing or extra token, a
 * malformed value, a value past its bound - and reports every
 * deviation as a StateError; a restore that throws leaves the
 * component unusable, and callers discard it.
 */

#ifndef MEMCON_COMMON_STATE_IO_HH
#define MEMCON_COMMON_STATE_IO_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace memcon
{

/** A state record that does not decode: always carries the reason. */
class StateError : public std::runtime_error
{
  public:
    explicit StateError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

class StateWriter
{
  public:
    /** Start a new line with `tag`. */
    void line(const char *tag);

    void u64(const char *key, std::uint64_t value);
    void tick(const char *key, Tick value) { u64(key, value.value()); }
    void flag(const char *key, bool value) { u64(key, value ? 1 : 0); }
    void f64(const char *key, double value);

    /** Every word of `bits` as 16 hex digits, lowest word first. */
    void bits(const char *key, const BitVector &bits);

    /** `values` as tuples of `arity` elements (size % arity == 0). */
    void tuples(const char *key, const std::vector<std::uint64_t> &values,
                std::size_t arity = 1);

    /** Doubles, comma-separated. */
    void reals(const char *key, const std::vector<double> &values);

    /** One `name=value` token per counter of `group`, by name; every
     * value must be a non-negative integer below 2^53. */
    void stats(const StatGroup &group);

    /** The lines written so far. */
    std::vector<std::string> take() && { return std::move(lines); }

  private:
    std::string &cur();
    void key(const char *key);

    std::vector<std::string> lines;
};

class StateReader
{
  public:
    /** Read `lines` from the first; the reader does not own them. */
    explicit StateReader(const std::vector<std::string> &lines);

    /** Move to the next line, which must carry `tag`. */
    void line(const char *tag);

    std::uint64_t u64(const char *key);
    /** An unsigned value that must be below `limit`. */
    std::uint64_t u64(const char *key, std::uint64_t limit);
    Tick tick(const char *key) { return Tick{u64(key)}; }
    bool flag(const char *key);
    double f64(const char *key);

    /** Fill `out` (already sized) from its words; padding bits past
     * size() must be clear. */
    void bits(const char *key, BitVector &out);

    /** Tuples of `arity` elements, flattened; each element must be
     * below `limit`. */
    std::vector<std::uint64_t> tuples(const char *key, std::size_t arity = 1,
                                      std::uint64_t limit = ~0ull);

    std::vector<double> reals(const char *key);

    /** The rest of the line as `name=value` counters, each a
     * non-negative integer below 2^53. */
    void stats(StatGroup &group);

    /** Fail unless `ok`, naming the line being read. */
    void check(bool ok, const std::string &what) const;
    void
    check(bool ok, const char *what) const
    {
        if (!ok)
            fail(what);
    }

    /** Every line and token must have been consumed. */
    void finish() const;

  private:
    /** The value of the next token, which must be `key=...`. */
    std::string_view value(const char *key);
    [[noreturn]] void fail(const std::string &what) const;

    const std::vector<std::string> &lines;
    std::size_t next = 0;       //!< index of the line after the current
    std::string_view rest;      //!< unread tokens of the current line
};

} // namespace memcon

#endif // MEMCON_COMMON_STATE_IO_HH
