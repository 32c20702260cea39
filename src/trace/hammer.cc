#include "trace/hammer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon::trace
{

const char *
hammerKindName(HammerKind kind)
{
    switch (kind) {
    case HammerKind::SingleSided:
        return "single-sided";
    case HammerKind::DoubleSided:
        return "double-sided";
    case HammerKind::ManySided:
        return "many-sided";
    case HammerKind::Fuzzed:
        return "fuzzed";
    }
    panic("unknown hammer kind %d", static_cast<int>(kind));
}

std::vector<HammerKind>
allHammerKinds()
{
    return {HammerKind::SingleSided, HammerKind::DoubleSided,
            HammerKind::ManySided, HammerKind::Fuzzed};
}

HammerStream::HammerStream(const HammerSpec &spec,
                           const dram::AddressMap &map,
                           std::uint64_t num_rows)
    : cfg(spec)
{
    fatal_if(num_rows == 0, "hammer stream needs a populated module");
    fatal_if(cfg.bank >= map.numShards(),
             "hammer bank %u is outside the %llu-shard map '%s'",
             cfg.bank, static_cast<unsigned long long>(map.numShards()),
             map.name().c_str());
    fatal_if(cfg.sides < 2, "a hammer pattern needs at least 2 sides");
    fatal_if(cfg.actsPerUs <= 0.0, "actsPerUs must be positive");
    fatal_if(cfg.horizonMs <= 0.0, "horizonMs must be positive");

    // The bank's local row count: the map is a bijection, so local
    // rows 0..(num_rows / shards - 1) are always valid for any bank.
    const std::uint64_t bank_rows =
        std::max<std::uint64_t>(num_rows / map.numShards(), 1);
    const std::uint64_t band_lo = std::min(cfg.rowLo, bank_rows);
    const std::uint64_t band_hi =
        cfg.rowHi == 0 ? bank_rows : std::min(cfg.rowHi, bank_rows);
    fatal_if(band_lo >= band_hi,
             "hammer row band [%llu, %llu) is empty for a bank of "
             "%llu rows",
             static_cast<unsigned long long>(cfg.rowLo),
             static_cast<unsigned long long>(cfg.rowHi),
             static_cast<unsigned long long>(bank_rows));
    Rng rng(hashMix64(cfg.seed ^ 0x4861'6d6d'6572'2121ULL));

    // Local-row aggressor layout per persona, then per-aggressor
    // amplitudes (consecutive accesses before the loop moves on).
    std::vector<std::uint64_t> local;
    std::vector<unsigned> amplitude;
    const std::uint64_t margin = 4; // keep victims inside the band
    auto pick_base = [&](std::uint64_t span) {
        const std::uint64_t band = band_hi - band_lo;
        fatal_if(band <= span + 2 * margin,
                 "row band of %llu rows is too small for a %llu-row "
                 "hammer pattern",
                 static_cast<unsigned long long>(band),
                 static_cast<unsigned long long>(span));
        return band_lo + margin +
               rng.uniformInt(band - span - 2 * margin);
    };
    switch (cfg.kind) {
    case HammerKind::SingleSided: {
        // The far partner only forces row conflicts; its victims get
        // half the pattern's activations each.
        const std::uint64_t gap = 8 + rng.uniformInt(8);
        const std::uint64_t base = pick_base(gap);
        local = {base, base + gap};
        amplitude = {1, 1};
        break;
    }
    case HammerKind::DoubleSided: {
        // Aggressors sandwich one victim: v-1 and v+1.
        const std::uint64_t victim = pick_base(2) + 1;
        local = {victim - 1, victim + 1};
        amplitude = {1, 1};
        break;
    }
    case HammerKind::ManySided: {
        const std::uint64_t span = 2 * (cfg.sides - 1);
        const std::uint64_t base = pick_base(span);
        for (unsigned i = 0; i < cfg.sides; ++i)
            local.push_back(base + 2 * i);
        amplitude.assign(cfg.sides, 1);
        break;
    }
    case HammerKind::Fuzzed: {
        // Blacksmith-style: draw count, spacing, and amplitudes.
        const unsigned count = 2 + static_cast<unsigned>(
                                       rng.uniformInt(cfg.sides - 1));
        std::uint64_t span = 0;
        std::vector<std::uint64_t> offsets;
        for (unsigned i = 0; i < count; ++i) {
            offsets.push_back(span);
            // Spacing 2..3: mostly the TRR-evading distance-2 comb
            // (interior victims sandwiched by two aggressors), with
            // occasional stretch.
            span += 2 + rng.uniformInt(2);
        }
        const std::uint64_t base = pick_base(span);
        for (std::uint64_t off : offsets)
            local.push_back(base + off);
        // Amplitudes stay small (1-2): hits are cheap at the bank
        // but still occupy queue slots, and a pattern that is mostly
        // hits stops being a hammer.
        for (unsigned i = 0; i < count; ++i)
            amplitude.push_back(
                1 + static_cast<unsigned>(rng.uniformInt(2)));
        break;
    }
    }

    // Expand into one loop of physical rows, amplitudes inline -
    // (a a b c c c ...) repeated is exactly Blacksmith's frequency/
    // amplitude encoding of an access pattern.
    for (std::size_t i = 0; i < local.size(); ++i) {
        const std::uint64_t physical = map.pageOf(cfg.bank, local[i]);
        fatal_if(physical >= num_rows,
                 "hammer aggressor (bank %u, row %llu) maps to "
                 "physical row %llu past the module's %llu rows",
                 cfg.bank, static_cast<unsigned long long>(local[i]),
                 static_cast<unsigned long long>(physical),
                 static_cast<unsigned long long>(num_rows));
        aggressorRows.push_back(physical);
        for (unsigned a = 0; a < amplitude[i]; ++a)
            pattern.push_back(physical);
    }
    std::sort(aggressorRows.begin(), aggressorRows.end());
    aggressorRows.erase(
        std::unique(aggressorRows.begin(), aggressorRows.end()),
        aggressorRows.end());

    accessesPerUs = cfg.actsPerUs;
    if (cfg.normalizeActRate) {
        // One loop costs the bank one ACT per row *transition*; the
        // amplitude tail of each group hits the open row buffer.
        std::uint64_t acts_per_loop = 0;
        for (std::size_t i = 0; i < pattern.size(); ++i) {
            const std::uint64_t prev =
                pattern[(i + pattern.size() - 1) % pattern.size()];
            if (pattern[i] != prev)
                ++acts_per_loop;
        }
        if (acts_per_loop > 0)
            accessesPerUs *= static_cast<double>(pattern.size()) /
                             static_cast<double>(acts_per_loop);
    }

    total = static_cast<std::uint64_t>(cfg.horizonMs * 1000.0 *
                                       accessesPerUs);
}

bool
HammerStream::peek(Tick *at, std::uint64_t *row)
{
    if (popped >= total)
        return false;
    // Accesses are evenly spaced: access k lands at k / accessesPerUs
    // microseconds. Monotone by construction.
    *at = usToTicks(static_cast<double>(popped) / accessesPerUs);
    *row = pattern[popped % pattern.size()];
    return true;
}

void
HammerStream::pop()
{
    panic_if(popped >= total, "pop() on an exhausted hammer stream");
    ++popped;
}

void
HammerStream::restoreCursor(std::uint64_t count)
{
    panic_if(count > total,
             "hammer cursor restored past the end of the stream "
             "(%llu of %llu accesses)",
             static_cast<unsigned long long>(count),
             static_cast<unsigned long long>(total));
    popped = count;
}

} // namespace memcon::trace
