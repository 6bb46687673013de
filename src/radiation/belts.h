// Trapped-particle belt flux model (IRENE AE9/AP9 substitute).
//
// Flux is organized by dipole coordinates: a profile over McIlwain L picks
// the belt (inner/outer electrons, inner protons) and a (B/B0)^-k factor
// models the thinning of the trapped population away from the magnetic
// equator along each field line. Combined with the eccentric dipole this
// reproduces the LEO radiation structures the paper relies on:
//   * the South Atlantic Anomaly (weak-field region at fixed altitude),
//   * outer-belt "horn" bands crossing ±55–70° magnetic latitude,
//   * worst-case fluence for ~60–70° inclinations (paper Fig. 7).
// Amplitudes are calibrated to the paper's plotted ranges at 560 km.
#ifndef SSPLANE_RADIATION_BELTS_H
#define SSPLANE_RADIATION_BELTS_H

#include "astro/time.h"
#include "radiation/magnetic_field.h"
#include "util/vec3.h"

namespace ssplane::radiation {

/// Differential particle flux at the model's reference energies.
struct particle_flux {
    double electrons_cm2_s_mev = 0.0; ///< ~1 MeV trapped electrons.
    double protons_cm2_s_mev = 0.0;   ///< ~10 MeV trapped protons.
};

/// Activity-independent factorization of the belt flux at one position.
///
/// Solar activity enters the model only as multiplicative scales on the
/// outer electron belt and the proton belt, so the expensive part of a flux
/// evaluation — dipole coordinates, drift-shell survival, belt profiles —
/// can be computed once per position and reused across every sampled day:
///   electrons(a) = electron_inner + electron_outer * outer_activity_scale(a)
///   protons(a)   = proton * proton_activity_scale(a)
struct flux_components {
    double electron_inner = 0.0; ///< [#/cm^2/s/MeV], activity-independent.
    double electron_outer = 0.0; ///< [#/cm^2/s/MeV] at unit outer scale.
    double proton = 0.0;         ///< [#/cm^2/s/MeV] at unit proton scale.
};

/// Tunable belt parameters (defaults are the calibrated values).
struct belt_parameters {
    // Electron belts (differential flux at 1 MeV, equatorial peak).
    // The inner belt is strongly confined toward the magnetic equator (its
    // LEO dose is dominated by the SAA); the outer belt has a much flatter
    // pitch-angle structure so its high-latitude "horns" dominate there.
    double electron_inner_amplitude = 1.01e6;  ///< [#/cm^2/s/MeV] at L ~ 1.4.
    double electron_inner_center_l = 1.40;
    double electron_inner_width_l = 0.28;
    double electron_inner_confinement_exponent = 2.2; ///< (B/B0)^-k falloff.
    double electron_outer_amplitude = 3.28e6; ///< [#/cm^2/s/MeV] at L ~ 4.9.
    double electron_outer_center_l = 4.9;
    double electron_outer_width_l = 0.85;
    double electron_outer_confinement_exponent = 0.5;
    /// Outer belt activity response: amp x (floor + gain x activity).
    double electron_activity_floor = 0.35;
    double electron_activity_gain = 1.30;

    // Proton inner belt (differential flux at 10 MeV). The belt extends up
    // in L so its high-latitude crossings temper the SAA dominance (needed
    // for the mild inclination dependence of paper Fig. 10b).
    double proton_amplitude = 2.9e3; ///< [#/cm^2/s/MeV] at L ~ 1.8.
    double proton_center_l = 1.80;
    double proton_width_l = 0.55;
    double proton_confinement_exponent = 0.6;
    /// Protons mildly anti-correlate with activity (atmospheric losses).
    double proton_activity_floor = 1.15;
    double proton_activity_slope = -0.30;

    /// Below this altitude the atmosphere removes trapped particles.
    double atmospheric_cutoff_altitude_m = 150.0e3;

    /// Drift-shell loss taper width for the inner-belt populations [m].
    /// Inner-belt particles whose drift shell dips below the cutoff at any
    /// longitude are absorbed — this is what confines low-L flux to the SAA.
    double drift_loss_taper_m = 150.0e3;
};

/// The complete radiation environment: dipole geometry + belt profiles +
/// solar-cycle response.
class radiation_environment {
public:
    /// Default: eccentric-2015 dipole with calibrated belt parameters.
    radiation_environment();

    radiation_environment(const dipole_model& dipole, const belt_parameters& params);

    /// Flux at an Earth-fixed position for a given activity level.
    particle_flux flux(const vec3& r_ecef_m, double activity) const noexcept;

    /// Flux at an Earth-fixed position and absolute time (activity from the
    /// solar-cycle model).
    particle_flux flux_at(const vec3& r_ecef_m, const astro::instant& t) const noexcept;

    /// Activity-independent flux factorization at a position (the expensive
    /// geometry half of a flux evaluation; see flux_components).
    flux_components components_at(const vec3& r_ecef_m) const noexcept;

    /// Multiplicative outer-electron-belt response to solar activity.
    double outer_activity_scale(double activity) const noexcept;

    /// Multiplicative proton-belt response to solar activity.
    double proton_activity_scale(double activity) const noexcept;

    /// Recombine components with an activity level. `flux()` is exactly
    /// combine(components_at(r), activity), so a path that factors out the
    /// activity matches the direct path bit-for-bit.
    particle_flux combine(const flux_components& c, double activity) const noexcept;

    const dipole_model& dipole() const noexcept { return dipole_; }
    const belt_parameters& parameters() const noexcept { return params_; }

private:
    dipole_model dipole_;
    belt_parameters params_;
};

} // namespace ssplane::radiation

#endif // SSPLANE_RADIATION_BELTS_H
