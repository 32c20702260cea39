#include "failure/content.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon::failure
{

std::string
toString(PatternKind kind)
{
    switch (kind) {
      case PatternKind::Solid0:
        return "solid0";
      case PatternKind::Solid1:
        return "solid1";
      case PatternKind::Checkerboard:
        return "checkerboard";
      case PatternKind::InvCheckerboard:
        return "inv-checkerboard";
      case PatternKind::RowStripe:
        return "row-stripe";
      case PatternKind::ColStripe:
        return "col-stripe";
      case PatternKind::WalkingOne:
        return "walking-1";
      case PatternKind::WalkingZero:
        return "walking-0";
      case PatternKind::Random:
        return "random";
    }
    panic("unknown pattern kind");
}

PatternContent::PatternContent(PatternKind kind, std::uint64_t param_value)
    : patternKind(kind), param(param_value)
{
}

std::uint64_t
PatternContent::wordAt(std::uint64_t row, std::uint64_t word_idx) const
{
    switch (patternKind) {
      case PatternKind::Solid0:
        return 0;
      case PatternKind::Solid1:
        return ~std::uint64_t{0};
      case PatternKind::Checkerboard:
        return (row & 1) ? 0x5555555555555555ULL : 0xaaaaaaaaaaaaaaaaULL;
      case PatternKind::InvCheckerboard:
        return (row & 1) ? 0xaaaaaaaaaaaaaaaaULL : 0x5555555555555555ULL;
      case PatternKind::RowStripe:
        return (row & 1) ? ~std::uint64_t{0} : 0;
      case PatternKind::ColStripe:
        // 8-bit wide bands: bytes alternate 0x00 / 0xff.
        return 0xff00ff00ff00ff00ULL;
      case PatternKind::WalkingOne:
        return std::uint64_t{1} << (param % 64);
      case PatternKind::WalkingZero:
        return ~(std::uint64_t{1} << (param % 64));
      case PatternKind::Random:
        return hashMix64(param * 0x9e3779b97f4a7c15ULL ^
                         hashMix64(row * 131 + word_idx));
    }
    panic("unknown pattern kind");
}

std::string
PatternContent::name() const
{
    if (patternKind == PatternKind::Random ||
        patternKind == PatternKind::WalkingOne ||
        patternKind == PatternKind::WalkingZero) {
        return strprintf("%s[%llu]", toString(patternKind).c_str(),
                         static_cast<unsigned long long>(param));
    }
    return toString(patternKind);
}

std::vector<PatternContent>
PatternContent::battery(unsigned num_patterns)
{
    std::vector<PatternContent> out;
    const PatternKind classics[] = {
        PatternKind::Solid0,       PatternKind::Solid1,
        PatternKind::Checkerboard, PatternKind::InvCheckerboard,
        PatternKind::RowStripe,    PatternKind::ColStripe,
    };
    for (PatternKind k : classics) {
        if (out.size() >= num_patterns)
            return out;
        out.emplace_back(k);
    }
    for (unsigned i = 0; i < 8 && out.size() < num_patterns; ++i)
        out.emplace_back(PatternKind::WalkingOne, i * 8 + 1);
    for (unsigned i = 0; i < 8 && out.size() < num_patterns; ++i)
        out.emplace_back(PatternKind::WalkingZero, i * 8 + 3);
    std::uint64_t seed = 1;
    while (out.size() < num_patterns)
        out.emplace_back(PatternKind::Random, seed++);
    return out;
}

std::vector<ContentPersona>
ContentPersona::specSuite()
{
    // Ordered as in Figure 4. Data statistics are synthetic but span
    // the spectrum from zero-dominated integer codes to high-entropy
    // floating-point/pointer-chasing footprints. The fractions are
    // calibrated so that, with the default FailureModelParams, each
    // benchmark's failing-row percentage lands near the paper's
    // 0.38%-5.6% Figure 4 spread.
    //                name        zero   small  ptr   seed
    return {
        {"perlbench",  0.960, 0.03, 0.004, 2001},
        {"bzip2",      0.868, 0.10, 0.01, 2002},
        {"gcc",        0.818, 0.10, 0.05, 2003},
        {"mcf",        0.809, 0.05, 0.10, 2004},
        {"zeusmp",     0.784, 0.04, 0.02, 2005},
        {"cactusADM",  0.802, 0.04, 0.02, 2006},
        {"gobmk",      0.789, 0.12, 0.04, 2007},
        {"namd",       0.714, 0.03, 0.02, 2008},
        {"soplex",     0.724, 0.06, 0.05, 2009},
        {"dealII",     0.699, 0.05, 0.06, 2010},
        {"calculix",   0.677, 0.05, 0.03, 2011},
        {"hmmer",      0.636, 0.08, 0.02, 2012},
        {"libquantum", 0.735, 0.08, 0.02, 2013},
        {"GemsFDTD",   0.629, 0.03, 0.02, 2014},
        {"h264ref",    0.626, 0.06, 0.03, 2015},
        {"tonto",      0.574, 0.04, 0.02, 2016},
        {"omnetpp",    0.571, 0.05, 0.10, 2017},
        {"lbm",        0.485, 0.02, 0.01, 2018},
        {"xalancbmk",  0.498, 0.04, 0.12, 2019},
        {"astar",      0.361, 0.03, 0.08, 2020},
    };
}

ContentPersona
ContentPersona::byName(const std::string &name)
{
    for (const auto &p : specSuite())
        if (p.name == name)
            return p;
    fatal("unknown content persona '%s'", name.c_str());
}

ProgramContent::ProgramContent(ContentPersona persona, std::uint64_t epoch)
    : personaDesc(std::move(persona)), epochIdx(epoch)
{
    fatal_if(personaDesc.zeroWordFraction + personaDesc.smallWordFraction +
                     personaDesc.pointerWordFraction >
                 1.0,
             "persona '%s' word-class fractions exceed 1",
             personaDesc.name.c_str());
}

std::uint64_t
ProgramContent::generateWord(std::uint64_t mix) const
{
    // Classify the word deterministically, then draw its value from
    // an independent hash so class boundaries do not correlate with
    // content bits.
    double cls = static_cast<double>(hashMix64(mix) >> 11) * 0x1.0p-53;
    std::uint64_t val = hashMix64(mix ^ 0xabcdef1234567890ULL);

    double z = personaDesc.zeroWordFraction;
    double s = z + personaDesc.smallWordFraction;
    double p = s + personaDesc.pointerWordFraction;

    if (cls < z)
        return 0;
    if (cls < s)
        return val & 0xffff; // small integer: high 48 bits zero
    if (cls < p)
        return 0x00007f0000000000ULL | (val & 0x000000ffffffffc0ULL);
    return val; // high-entropy payload
}

std::uint64_t
ProgramContent::wordAt(std::uint64_t row, std::uint64_t word_idx) const
{
    const std::uint64_t base = (personaDesc.seed * 0x2545f4914f6cdd1dULL) ^
                               hashMix64(row * 4099 + word_idx);

    // Decide the last epoch at which this word changed: each epoch
    // rewrites kEpochChurn of the footprint.
    std::uint64_t last_changed = 0;
    for (std::uint64_t e = epochIdx; e > 0; --e) {
        double u = static_cast<double>(hashMix64(base ^ (e * 0x51ed2701)) >>
                                       11) *
                   0x1.0p-53;
        if (u < kEpochChurn) {
            last_changed = e;
            break;
        }
    }
    return generateWord(base ^ hashMix64(last_changed + 1));
}

std::string
ProgramContent::name() const
{
    return strprintf("%s@%llu", personaDesc.name.c_str(),
                     static_cast<unsigned long long>(epochIdx));
}

} // namespace memcon::failure
