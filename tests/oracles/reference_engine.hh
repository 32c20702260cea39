/**
 * @file
 * Test oracle: the seed MEMCON engine (Sections 3, 4, 6.1, 6.4),
 * kept only to prove core::MemconEngine reproduces it.
 *
 * It replays the obvious way: materialize every write event,
 * std::stable_sort by time, scan every page at each quantum end for
 * the re-scrub, and price PRIL with the hash-set
 * ReferencePrilPredictor. Flat (single-bank) engine only. It is
 * self-contained - its own budget rounding, buffer clamp, and
 * single-shard reduction - and calls nothing in src/core/engine.cc,
 * so a bug in the production engine's shared helpers cannot hide in
 * both sides of an equivalence test.
 *
 * It fills the metrics the equivalence suite compares (the golden
 * digest surface plus acts); the streaming engine's instrumentation
 * counters, shard breakdown, and per-page end state stay empty.
 */

#ifndef MEMCON_TESTS_ORACLES_REFERENCE_ENGINE_HH
#define MEMCON_TESTS_ORACLES_REFERENCE_ENGINE_HH

#include <vector>

#include "common/units.hh"
#include "core/engine.hh"
#include "trace/app_model.hh"

namespace memcon::oracles
{

/** Reference counterpart of core::MemconEngine::run(). */
core::MemconResult
runReference(const core::MemconConfig &cfg,
             const std::vector<std::vector<TimeMs>> &page_writes,
             double duration_ms,
             const core::MemconEngine::FailureOracle &oracle = {},
             const core::MemconEngine::TransitionObserver &observer = {},
             const core::MemconEngine::TimedFailureOracle &timed_oracle =
                 {});

/**
 * Reference counterpart of core::MemconEngine::runOnApp(): the
 * persona's per-page timelines are materialized up front through
 * trace::PageWriteProcess::writeTimes(), never streamed.
 */
core::MemconResult
runReferenceOnApp(const core::MemconConfig &cfg,
                  const trace::AppPersona &persona,
                  const core::MemconEngine::FailureOracle &oracle = {});

} // namespace memcon::oracles

#endif // MEMCON_TESTS_ORACLES_REFERENCE_ENGINE_HH
