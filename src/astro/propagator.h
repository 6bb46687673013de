// Secular-J2 orbit propagator.
//
// First-order secular theory: the ascending node, argument of perigee and
// mean anomaly advance at constant (element-dependent) rates while a, e, i
// stay fixed. This captures exactly the physics the SS-plane design relies
// on — nodal precession (sun-synchronous condition) and the perturbed nodal
// period (repeat ground tracks) — at a tiny computational cost.
#ifndef SSPLANE_ASTRO_PROPAGATOR_H
#define SSPLANE_ASTRO_PROPAGATOR_H

#include <span>

#include "astro/kepler.h"
#include "astro/time.h"

namespace ssplane::astro {

/// Secular drift rates produced by the J2 zonal harmonic [rad/s].
struct j2_rates {
    double raan_rate = 0.0;         ///< dΩ/dt (negative for prograde orbits).
    double arg_perigee_rate = 0.0;  ///< dω/dt.
    double mean_anomaly_rate = 0.0; ///< dM/dt including the J2 correction (= n̄).
};

/// Compute the secular J2 rates for an element set.
j2_rates compute_j2_rates(const orbital_elements& el);

/// A satellite on a J2-perturbed Keplerian orbit.
class j2_propagator {
public:
    /// Elements are osculating at `epoch`.
    j2_propagator(const orbital_elements& elements, const instant& epoch);

    const instant& epoch() const noexcept { return epoch_; }
    const j2_rates& rates() const noexcept { return rates_; }

    /// Mean elements at time `t` (angles wrapped to [0, 2*pi)).
    orbital_elements elements_at(const instant& t) const noexcept;

    /// Mean elements `dt_s` seconds after the epoch — the single secular
    /// advance shared by the per-call and batched paths.
    orbital_elements elements_after(double dt_s) const noexcept;

    /// ECI state at time `t`.
    state_vector state_at(const instant& t) const;

    /// Batched propagation: ECI states at `base + offsets_s[i]` seconds for
    /// every i, written to `out` (which must hold at least offsets_s.size()
    /// states). One epoch-offset is hoisted and the element advance runs as
    /// a single sweep — the vectorizable form of calling state_at in a loop.
    void states_at_offsets(const instant& base, std::span<const double> offsets_s,
                           std::span<state_vector> out) const;

    /// Nodal (draconic) period: time between successive ascending-node
    /// crossings, 2*pi / (n̄ + dω/dt) [s].
    double nodal_period_s() const noexcept;

    /// Period of the Earth's rotation relative to the (precessing) orbital
    /// plane: 2*pi / (ω_earth − dΩ/dt) [s]. One "nodal day".
    double nodal_day_s() const noexcept;

private:
    orbital_elements elements0_;
    instant epoch_;
    j2_rates rates_;
};

/// Build a circular orbit from design parameters.
/// `raan_rad` and `arg_latitude_rad` (position along the orbit measured from
/// the ascending node) fix the in-plane placement at the epoch.
orbital_elements circular_orbit(double altitude_m, double inclination_rad,
                                double raan_rad, double arg_latitude_rad);

} // namespace ssplane::astro

#endif // SSPLANE_ASTRO_PROPAGATOR_H
