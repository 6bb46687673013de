// Repeat ground-track (RGT) orbit design and track-coverage sizing
// (paper §2.2 and Fig. 1).
//
// An RGT completes `revolutions` nodal periods in exactly `days` nodal days,
// retracing the same path over the surface. Design solves the J2-perturbed
// resonance for the semi-major axis at fixed inclination.
//
// Coverage model (see DESIGN.md): satellites ride the track as a delayed
// orbit family (any time delay along the track corresponds to a valid
// J2 orbit rotated in RAAN). Serving the track means continuously covering
// its *service swath* — points within c_svc of the track, where
// c_svc = min(0.9 λ, π/revolutions): half the adjacent-pass spacing, capped
// below the footprint half-angle λ. A satellite at cross-track offset c
// covers a swath point for a chord 2·sqrt(λ² − c²), giving
//     N = ceil( track_length / (2·sqrt(λ² − c_svc²)) ).
// An RGT "automatically provides uniform coverage" when adjacent ascending
// passes are closer than the footprint diameter (2λ ≥ 2π/revolutions).
#ifndef SSPLANE_CONSTELLATION_RGT_H
#define SSPLANE_CONSTELLATION_RGT_H

#include <optional>
#include <vector>

namespace ssplane::constellation {

/// A solved repeat-ground-track design.
struct rgt_design {
    int revolutions = 0;        ///< j: nodal periods per repeat cycle.
    int days = 0;               ///< k: nodal days per repeat cycle.
    double altitude_m = 0.0;    ///< Circular-orbit altitude above mean radius.
    double inclination_rad = 0.0;
    double nodal_period_s = 0.0;
    double nodal_day_s = 0.0;
    double repeat_period_s = 0.0; ///< days x nodal_day_s (== revolutions x nodal_period_s).
};

/// Solve the J2 resonance j x Tn == k x nodal_day for the altitude at fixed
/// inclination. Returns nullopt when the resonance falls outside
/// [alt_min_m, alt_max_m] or does not converge.
std::optional<rgt_design> design_rgt(int revolutions, int days, double inclination_rad,
                                     double alt_min_m = 200.0e3,
                                     double alt_max_m = 3000.0e3);

/// All RGT designs with repeat cycles up to `max_days` whose altitudes fall
/// in [alt_min_m, alt_max_m], sorted by altitude. Only coprime (j, k) pairs
/// are returned (others duplicate shorter cycles).
std::vector<rgt_design> enumerate_rgts(double inclination_rad,
                                       double alt_min_m, double alt_max_m,
                                       int max_days);

/// Result of sizing continuous coverage of one RGT's service swath.
struct rgt_sizing {
    double track_length_rad = 0.0;       ///< Closed track length [rad].
    double pass_spacing_rad = 0.0;       ///< Adjacent ascending-pass spacing 2π/j.
    double footprint_half_angle_rad = 0.0; ///< λ.
    double service_half_width_rad = 0.0; ///< c_svc actually served.
    bool gives_uniform_coverage = false; ///< 2λ >= pass spacing.
    int n_satellites = 0;                ///< Minimum satellites on the track.
};

/// Compute the sizing for one design at a 30° minimum elevation, with c_svc
/// capped at 0.9 λ and the track sampled every 20 s for its length.
rgt_sizing size_rgt_track_coverage(const rgt_design& design);

} // namespace ssplane::constellation

#endif // SSPLANE_CONSTELLATION_RGT_H
