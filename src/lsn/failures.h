// Radiation-driven failure and spare-provisioning model (paper §2.1, §5(2)).
//
// The paper's survivability argument: satellite failure rates scale with
// accumulated radiation dose, so operators keep 2–10 in-orbit spares per
// plane. Lower-dose constellations need fewer spares. This model makes that
// quantitative: per-satellite failures are Poisson with an annual rate that
// scales with daily electron fluence; a plane keeps K spares, a failed slot
// is restored from a spare after a drift time or (when spares are exhausted)
// after a launch lead time.
#ifndef SSPLANE_LSN_FAILURES_H
#define SSPLANE_LSN_FAILURES_H

#include <cstdint>

namespace ssplane::lsn {

/// Annual failure probability per satellite given its daily electron fluence:
/// 0.03/yr at the 7e9 reference fluence, scaling linearly with fluence.
double annual_failure_rate(double daily_electron_fluence) noexcept;

/// Result of a sparing simulation.
struct sparing_result {
    int spares = 0;           ///< Spares per plane used.
    double availability = 0.0;///< Mean fraction of slots populated over mission.
    double expected_failures_per_plane = 0.0;
    /// Set by `spares_for_availability`: true when the returned spare count
    /// actually reaches the requested availability. False means the search
    /// hit its 32-spare cap and the target is unreachable — callers must not
    /// read the result as a successful provisioning plan.
    bool target_met = false;
};

/// Monte-Carlo availability of a plane of `sats_per_plane` active slots with
/// `spares` in-orbit spares over a 5-year mission. A failed slot is restored
/// from a spare after 3 days of drift; each used spare is restocked by a
/// launch 60 days later; with no spare left the slot is down for that 60-day
/// launch lead.
sparing_result simulate_plane_availability(int sats_per_plane, int spares,
                                           double annual_rate,
                                           std::uint64_t seed,
                                           int n_trials = 256);

/// Minimum spares per plane reaching `target_availability` (caps at 32).
/// When even 32 spares miss the target — e.g. the per-failure drift downtime
/// alone exceeds the allowed outage budget — the 32-spare result is returned
/// with `target_met == false`.
sparing_result spares_for_availability(int sats_per_plane, double annual_rate,
                                       double target_availability,
                                       std::uint64_t seed,
                                       int n_trials = 256);

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_FAILURES_H
