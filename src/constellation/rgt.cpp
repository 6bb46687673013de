#include "constellation/rgt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "astro/frames.h"
#include "astro/propagator.h"
#include "geo/coverage.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::constellation {

std::optional<rgt_design> design_rgt(int revolutions, int days, double inclination_rad,
                                     double alt_min_m, double alt_max_m)
{
    expects(revolutions > 0 && days > 0, "revolutions and days must be positive");

    const double ratio = static_cast<double>(revolutions) / static_cast<double>(days);
    // Unperturbed initial guess: nodal period ~ sidereal day / (j/k).
    double period_guess = astro::sidereal_day_s / ratio;
    double a = astro::semi_major_axis_for_period_m(period_guess);

    astro::orbital_elements el;
    el.eccentricity = 0.0;
    el.inclination_rad = inclination_rad;

    for (int iter = 0; iter < 40; ++iter) {
        el.semi_major_axis_m = a;
        const astro::j2_rates rates = astro::compute_j2_rates(el);
        const double nodal_day =
            two_pi / (astro::earth_rotation_rate_rad_s - rates.raan_rate);
        const double target_nodal_period = nodal_day / ratio;
        // Required mean angular rate (n̄ + ω̇) and the Kepler part it implies.
        const double required_total_rate = two_pi / target_nodal_period;
        const double j2_extra =
            (rates.mean_anomaly_rate - astro::mean_motion_rad_s(a)) + rates.arg_perigee_rate;
        const double required_n = required_total_rate - j2_extra;
        if (required_n <= 0.0) return std::nullopt;
        const double a_next = std::cbrt(astro::mu_earth / (required_n * required_n));
        if (std::abs(a_next - a) < 1.0e-4) {
            a = a_next;
            break;
        }
        a = a_next;
    }

    rgt_design d;
    d.revolutions = revolutions;
    d.days = days;
    d.inclination_rad = inclination_rad;
    d.altitude_m = a - astro::earth_mean_radius_m;
    if (d.altitude_m < alt_min_m || d.altitude_m > alt_max_m) return std::nullopt;

    el.semi_major_axis_m = a;
    const astro::j2_propagator orbit(el, astro::instant::j2000());
    d.nodal_period_s = orbit.nodal_period_s();
    d.nodal_day_s = orbit.nodal_day_s();
    d.repeat_period_s = static_cast<double>(days) * d.nodal_day_s;
    return d;
}

std::vector<rgt_design> enumerate_rgts(double inclination_rad,
                                       double alt_min_m, double alt_max_m,
                                       int max_days)
{
    expects(max_days >= 1, "max_days must be at least 1");
    std::vector<rgt_design> designs;
    for (int k = 1; k <= max_days; ++k) {
        // Bound j by the unperturbed periods at the altitude limits.
        const double t_min = astro::orbital_period_s(
            astro::semi_major_axis_for_altitude_m(alt_min_m));
        const double t_max = astro::orbital_period_s(
            astro::semi_major_axis_for_altitude_m(alt_max_m));
        const int j_lo = static_cast<int>(
            std::floor(static_cast<double>(k) * astro::sidereal_day_s / t_max)) - 1;
        const int j_hi = static_cast<int>(
            std::ceil(static_cast<double>(k) * astro::sidereal_day_s / t_min)) + 1;
        for (int j = std::max(1, j_lo); j <= j_hi; ++j) {
            if (std::gcd(j, k) != 1) continue;
            if (auto d = design_rgt(j, k, inclination_rad, alt_min_m, alt_max_m))
                designs.push_back(*d);
        }
    }
    std::sort(designs.begin(), designs.end(),
              [](const rgt_design& a, const rgt_design& b) {
                  return a.altitude_m < b.altitude_m;
              });
    return designs;
}

namespace {

// Track-coverage sizing constants (see size_rgt_track_coverage).
constexpr double min_elevation_rad = 0.5235987755982988; // 30°
constexpr double service_swath_fraction = 0.9;
constexpr double track_step_s = 20.0;

/// Closed track length [rad]: sum of central angles between consecutive
/// subsatellite directions sampled every `track_step_s` over one repeat
/// period.
double track_length_rad(const rgt_design& design)
{
    astro::orbital_elements el;
    el.semi_major_axis_m = astro::semi_major_axis_for_altitude_m(design.altitude_m);
    el.inclination_rad = design.inclination_rad;
    const astro::instant epoch = astro::instant::j2000();
    const astro::j2_propagator orbit(el, epoch);

    double length = 0.0;
    vec3 prev;
    bool first = true;
    const auto n_steps =
        static_cast<std::size_t>(std::ceil(design.repeat_period_s / track_step_s));
    for (std::size_t i = 0; i <= n_steps; ++i) {
        const double dt =
            std::min(static_cast<double>(i) * track_step_s, design.repeat_period_s);
        const astro::instant t = epoch.plus_seconds(dt);
        const vec3 dir =
            astro::eci_to_ecef(orbit.state_at(t).position_m, t).normalized();
        if (!first) length += angle_between(prev, dir);
        prev = dir;
        first = false;
    }
    return length;
}

} // namespace

rgt_sizing size_rgt_track_coverage(const rgt_design& design)
{
    rgt_sizing s;
    const auto cov =
        geo::coverage_geometry::from(design.altitude_m, min_elevation_rad);
    s.footprint_half_angle_rad = cov.earth_central_half_angle_rad;
    s.pass_spacing_rad = two_pi / static_cast<double>(design.revolutions);
    s.gives_uniform_coverage = 2.0 * s.footprint_half_angle_rad >= s.pass_spacing_rad;
    s.service_half_width_rad =
        std::min(service_swath_fraction * s.footprint_half_angle_rad,
                 s.pass_spacing_rad / 2.0);
    s.track_length_rad = track_length_rad(design);

    const double lambda = s.footprint_half_angle_rad;
    const double c = s.service_half_width_rad;
    const double chord = 2.0 * std::sqrt(std::max(0.0, lambda * lambda - c * c));
    s.n_satellites =
        chord > 0.0 ? static_cast<int>(std::ceil(s.track_length_rad / chord)) : 0;
    return s;
}

} // namespace ssplane::constellation
