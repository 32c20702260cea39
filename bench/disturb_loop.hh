/**
 * @file
 * The read-disturb closed-loop run shared by abl_disturb_loref and
 * fig20_disturb_tradeoff.
 *
 * A 512-row module runs MEMCON through core::ClosedLoop while one
 * aggressor persona hammers bank 0's cold band beside benign demand
 * traffic. The fault injector's only source is the DisturbModel, so
 * the SECDED verdict stream is pure read-disturb. Windows are
 * compressed onto the run's timescale with the real 4x HI:LO ratio
 * (0.25/1.0 ms); thresholds are scaled per persona so rows hold at
 * HI-REF and flip at LO-REF.
 */

#ifndef MEMCON_BENCH_DISTURB_LOOP_HH
#define MEMCON_BENCH_DISTURB_LOOP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner.hh"
#include "trace/hammer.hh"

namespace memcon::bench
{

/**
 * Run one arm for 2 ms of simulated time (0.5 ms when quick) and
 * return the metrics named in `report`, in that order. `seed` fixes
 * the world: thresholds, aggressor pattern and benign stream.
 *
 * @param lo_ref_enabled   false: tests run and are paid for, but no
 *                         row relaxes its refresh
 * @param alert_threshold  the disturb guard's aggressor alert in
 *                         ACTs; 0 turns the guard off
 * @param report  any of flips, flips_single, flips_double, corrected,
 *                uncorrectable, victim_refreshes, tests, crossings,
 *                bank_degrades, pinned, lo_fraction, reduction,
 *                avg_latent_lo_rows, peak_latent_lo_rows (LO-REF rows
 *                holding a latent flip, sampled every 40 us)
 */
Metrics runDisturbLoop(trace::HammerKind kind, bool lo_ref_enabled,
                       std::uint64_t alert_threshold, std::uint64_t seed,
                       bool quick, const std::vector<std::string> &report);

} // namespace memcon::bench

#endif // MEMCON_BENCH_DISTURB_LOOP_HH
