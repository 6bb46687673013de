#include "astro/propagator.h"

#include <cmath>

#include "util/expects.h"

namespace ssplane::astro {

j2_rates compute_j2_rates(const orbital_elements& el)
{
    expects(el.semi_major_axis_m > 0.0, "semi-major axis must be positive");
    expects(el.eccentricity >= 0.0 && el.eccentricity < 1.0,
            "eccentricity must be in [0, 1)");

    const double n = mean_motion_rad_s(el.semi_major_axis_m);
    const double p = el.semi_major_axis_m * (1.0 - el.eccentricity * el.eccentricity);
    const double re_over_p = earth_equatorial_radius_m / p;
    const double factor = 1.5 * j2_earth * re_over_p * re_over_p * n;
    const double cos_i = std::cos(el.inclination_rad);
    const double sin_i = std::sin(el.inclination_rad);
    const double root = std::sqrt(1.0 - el.eccentricity * el.eccentricity);

    j2_rates r;
    r.raan_rate = -factor * cos_i;
    r.arg_perigee_rate = factor * (2.0 - 2.5 * sin_i * sin_i);
    r.mean_anomaly_rate = n + factor * root * (1.0 - 1.5 * sin_i * sin_i);
    return r;
}

j2_propagator::j2_propagator(const orbital_elements& elements, const instant& epoch)
    : elements0_(elements), epoch_(epoch), rates_(compute_j2_rates(elements))
{
}

orbital_elements j2_propagator::elements_after(double dt_s) const noexcept
{
    orbital_elements el = elements0_;
    el.raan_rad = wrap_two_pi(el.raan_rad + rates_.raan_rate * dt_s);
    el.arg_perigee_rad = wrap_two_pi(el.arg_perigee_rad + rates_.arg_perigee_rate * dt_s);
    el.mean_anomaly_rad = wrap_two_pi(el.mean_anomaly_rad + rates_.mean_anomaly_rate * dt_s);
    return el;
}

orbital_elements j2_propagator::elements_at(const instant& t) const noexcept
{
    return elements_after(t.seconds_since(epoch_));
}

state_vector j2_propagator::state_at(const instant& t) const
{
    return elements_to_state(elements_at(t));
}

void j2_propagator::states_at_offsets(const instant& base,
                                      std::span<const double> offsets_s,
                                      std::span<state_vector> out) const
{
    expects(out.size() >= offsets_s.size(), "output span too small for offsets");
    const double base_dt = base.seconds_since(epoch_);
    for (std::size_t i = 0; i < offsets_s.size(); ++i)
        out[i] = elements_to_state(elements_after(base_dt + offsets_s[i]));
}

double j2_propagator::nodal_period_s() const noexcept
{
    return two_pi / (rates_.mean_anomaly_rate + rates_.arg_perigee_rate);
}

double j2_propagator::nodal_day_s() const noexcept
{
    return two_pi / (earth_rotation_rate_rad_s - rates_.raan_rate);
}

orbital_elements circular_orbit(double altitude_m, double inclination_rad,
                                double raan_rad, double arg_latitude_rad)
{
    expects(altitude_m > 0.0, "altitude must be positive");
    orbital_elements el;
    el.semi_major_axis_m = semi_major_axis_for_altitude_m(altitude_m);
    el.eccentricity = 0.0;
    el.inclination_rad = inclination_rad;
    el.raan_rad = wrap_two_pi(raan_rad);
    el.arg_perigee_rad = 0.0;
    // For e = 0 the mean anomaly equals the argument of latitude.
    el.mean_anomaly_rad = wrap_two_pi(arg_latitude_rad);
    return el;
}

} // namespace ssplane::astro
