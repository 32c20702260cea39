#include "registry.hh"

namespace memcon::analyze
{

const std::vector<RuleInfo> &
ruleRegistry()
{
    static const std::vector<RuleInfo> rules = {
        {"random-device", "determinism", "error",
         "std::random_device anywhere; seed an Rng "
         "(common/random.hh) with a fixed value"},
        {"rand", "determinism", "error",
         "rand()/srand(); hidden global RNG state"},
        {"wall-clock", "determinism", "error",
         "time()/clock()/std::chrono wall and steady clocks; "
         "results must not depend on when they ran"},
        {"unordered-iter", "determinism", "error",
         "iteration over an unordered container declared in the "
         "same file; order is implementation noise"},
        {"empty-catch", "determinism", "error",
         "catch handler with an empty body; a swallowed error "
         "hides crash-safety bugs"},
        {"lint-marker", "markers", "error",
         "malformed lint:allow or memcon: marker; a suppression or "
         "contract that fails to parse is reported, never dropped"},
        {"guarded-by", "concurrency", "error",
         "member tagged memcon:guarded_by(<mutex>) used outside a "
         "scope that acquired <mutex> via a RAII guard"},
        {"shard-local", "concurrency", "error",
         "state tagged memcon:shard_local touched from a function "
         "not tagged memcon:shard_scope"},
        {"layering", "layering", "error",
         "include back-edge against the component DAG, or an "
         "include cycle"},
        {"unit-literal", "units", "error",
         "raw numeric literal flows into a *_ms/*_ns/*_ticks name "
         "without a Tick/TimeMs constructor"},
    };
    return rules;
}

bool
knownRule(const std::string &name)
{
    for (const RuleInfo &r : ruleRegistry())
        if (r.name == name)
            return true;
    return false;
}

} // namespace memcon::analyze
