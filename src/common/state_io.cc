#include "common/state_io.hh"

#include <charconv>
#include <cmath>

#include "common/logging.hh"

namespace memcon
{

namespace
{

const char kHexDigits[] = "0123456789abcdef";

/** Counters are integers a double holds exactly. */
constexpr std::uint64_t kCountLimit = 1ull << 53;

void
appendU64(std::string &out, std::uint64_t value)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

void
appendF64(std::string &out, double value)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

/** The whole of `text` as a decimal u64 in the writer's form (no
 * sign, no leading zero), or false. */
bool
parseU64(std::string_view text, std::uint64_t *out)
{
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, *out);
    return !text.empty() && res.ec == std::errc{} && res.ptr == end &&
           (text[0] != '0' || text.size() == 1);
}

/** The whole of `text` as a finite double in the writer's form (the
 * one the shortest round trip re-encodes to the same token), or
 * false. */
bool
parseF64(std::string_view text, double *out)
{
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, *out);
    if (res.ec != std::errc{} || res.ptr != end || !std::isfinite(*out))
        return false;
    char buf[32];
    const auto enc = std::to_chars(buf, buf + sizeof(buf), *out);
    return std::string_view(buf, enc.ptr - buf) == text;
}

/** Split off the part of `text` before `sep` (all of it if absent). */
std::string_view
splitOff(std::string_view &text, char sep)
{
    const std::size_t at = text.find(sep);
    const std::string_view head = text.substr(0, at);
    text = at == std::string_view::npos ? std::string_view{}
                                        : text.substr(at + 1);
    return head;
}

} // namespace

// --------------------------------------------------------------------
// StateWriter
// --------------------------------------------------------------------

std::string &
StateWriter::cur()
{
    panic_if(lines.empty(), "state field written before any line");
    return lines.back();
}

void
StateWriter::line(const char *tag)
{
    lines.emplace_back(tag);
}

void
StateWriter::key(const char *key)
{
    std::string &out = cur();
    out += ' ';
    out += key;
    out += '=';
}

void
StateWriter::u64(const char *k, std::uint64_t value)
{
    key(k);
    appendU64(cur(), value);
}

void
StateWriter::f64(const char *k, double value)
{
    key(k);
    appendF64(cur(), value);
}

void
StateWriter::bits(const char *k, const BitVector &bits)
{
    key(k);
    std::string &out = cur();
    const std::uint64_t *words = bits.wordData();
    for (std::size_t w = 0; w < bits.wordCount(); ++w)
        for (int shift = 60; shift >= 0; shift -= 4)
            out += kHexDigits[(words[w] >> shift) & 0xf];
}

void
StateWriter::tuples(const char *k, const std::vector<std::uint64_t> &values,
                    std::size_t arity)
{
    panic_if(arity == 0 || values.size() % arity != 0,
             "state tuple list of %zu values is not in %zu-tuples",
             values.size(), arity);
    key(k);
    std::string &out = cur();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += i % arity == 0 ? ',' : ':';
        appendU64(out, values[i]);
    }
}

void
StateWriter::reals(const char *k, const std::vector<double> &values)
{
    key(k);
    std::string &out = cur();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        appendF64(out, values[i]);
    }
}

void
StateWriter::stats(const StatGroup &group)
{
    for (const auto &[name, value] : group.entries()) {
        panic_if(name.find_first_of(" =") != std::string::npos,
                 "stat name '%s' cannot be a state key", name.c_str());
        panic_if(!(value >= 0.0 &&
                   value < static_cast<double>(kCountLimit)) ||
                     value != std::floor(value),
                 "counter '%s'=%g is not a count", name.c_str(), value);
        u64(name.c_str(), static_cast<std::uint64_t>(value));
    }
}

// --------------------------------------------------------------------
// StateReader
// --------------------------------------------------------------------

StateReader::StateReader(const std::vector<std::string> &record)
    : lines(record)
{
}

void
StateReader::fail(const std::string &what) const
{
    throw StateError(strprintf("state line %zu: %s", next, what.c_str()));
}

void
StateReader::check(bool ok, const std::string &what) const
{
    if (!ok)
        fail(what);
}

void
StateReader::line(const char *tag)
{
    if (!rest.empty())
        fail("has trailing tokens '" + std::string(rest) + "'");
    if (next >= lines.size())
        throw StateError(
            strprintf("state record ends before its '%s' line", tag));
    std::string_view text = lines[next++];
    const std::string_view found = splitOff(text, ' ');
    if (found != tag)
        fail("is '" + std::string(found) + "', expected '" + tag + "'");
    rest = text;
}

std::string_view
StateReader::value(const char *key)
{
    if (rest.empty())
        fail(std::string("ends before its '") + key + "' field");
    std::string_view token = splitOff(rest, ' ');
    const std::string_view name = splitOff(token, '=');
    if (name != key)
        fail("has field '" + std::string(name) + "' where '" + key +
             "' belongs");
    return token;
}

std::uint64_t
StateReader::u64(const char *key)
{
    std::uint64_t v = 0;
    if (!parseU64(value(key), &v))
        fail(std::string("bad integer for '") + key + "'");
    return v;
}

std::uint64_t
StateReader::u64(const char *key, std::uint64_t limit)
{
    const std::uint64_t v = u64(key);
    if (v >= limit)
        fail(strprintf("'%s'=%llu is not below %llu", key,
                       static_cast<unsigned long long>(v),
                       static_cast<unsigned long long>(limit)));
    return v;
}

bool
StateReader::flag(const char *key)
{
    return u64(key, 2) != 0;
}

double
StateReader::f64(const char *key)
{
    double v = 0.0;
    if (!parseF64(value(key), &v))
        fail(std::string("bad number for '") + key + "'");
    return v;
}

void
StateReader::bits(const char *key, BitVector &out)
{
    const std::string_view text = value(key);
    const std::size_t words = (out.size() + 63) / 64;
    if (text.size() != words * 16 ||
        text.find_first_not_of(kHexDigits) != std::string_view::npos)
        fail(strprintf("'%s' is not %zu lowercase hex digits", key,
                       words * 16));
    out.clearAll();
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word = 0;
        const char *first = text.data() + w * 16;
        const auto res = std::from_chars(first, first + 16, word, 16);
        if (res.ec != std::errc{} || res.ptr != first + 16)
            fail(std::string("bad hex word in '") + key + "'");
        for (; word != 0; word &= word - 1) {
            const std::size_t bit =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
            if (bit >= out.size())
                fail(std::string("'") + key + "' sets a bit past its size");
            out.set(bit);
        }
    }
}

std::vector<std::uint64_t>
StateReader::tuples(const char *key, std::size_t arity, std::uint64_t limit)
{
    std::string_view text = value(key);
    if (!text.empty() && text.back() == ',')
        fail(std::string("'") + key + "' ends in a comma");
    std::vector<std::uint64_t> out;
    while (!text.empty()) {
        std::string_view item = splitOff(text, ',');
        for (std::size_t i = 0; i < arity; ++i) {
            std::uint64_t v = 0;
            if (item.empty() || item.back() == ':' ||
                !parseU64(splitOff(item, ':'), &v) || v >= limit)
                fail(strprintf("'%s' holds a bad %zu-tuple", key, arity));
            out.push_back(v);
        }
        if (!item.empty())
            fail(strprintf("'%s' has a tuple of more than %zu values", key,
                           arity));
    }
    return out;
}

std::vector<double>
StateReader::reals(const char *key)
{
    std::string_view text = value(key);
    if (!text.empty() && text.back() == ',')
        fail(std::string("'") + key + "' ends in a comma");
    std::vector<double> out;
    while (!text.empty()) {
        double v = 0.0;
        if (!parseF64(splitOff(text, ','), &v))
            fail(std::string("bad number in '") + key + "'");
        out.push_back(v);
    }
    return out;
}

void
StateReader::stats(StatGroup &group)
{
    std::map<std::string, double> values;
    while (!rest.empty()) {
        std::string_view token = splitOff(rest, ' ');
        const std::string name(splitOff(token, '='));
        std::uint64_t v = 0;
        if (name.empty() || !parseU64(token, &v) || v >= kCountLimit)
            fail("bad counter token for '" + name + "'");
        if (!values.empty() && !(values.rbegin()->first < name))
            fail("counter '" + name + "' is out of order");
        values.emplace(name, static_cast<double>(v));
    }
    group.assign(std::move(values));
}

void
StateReader::finish() const
{
    if (!rest.empty())
        fail("has trailing tokens '" + std::string(rest) + "'");
    if (next != lines.size())
        throw StateError(strprintf(
            "state record has %zu lines past its last field",
            lines.size() - next));
}

} // namespace memcon
