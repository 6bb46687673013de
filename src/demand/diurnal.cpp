#include "demand/diurnal.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/angles.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ssplane::demand {

namespace {

// Site-ensemble noise constants.
constexpr double noise_sigma_log = 0.35;   // lognormal multiplicative noise
constexpr double burst_probability = 0.07; // heavy-tail burst chance per sample
constexpr double burst_pareto_alpha = 1.1; // burst size tail index
constexpr double burst_pareto_min = 4.0;   // minimum burst multiplier

/// Circular Gaussian bump centered at `center_h` with width `sigma_h`.
double bump(double tod_h, double center_h, double sigma_h) noexcept
{
    const double d = hour_difference(tod_h, center_h);
    return std::exp(-d * d / (2.0 * sigma_h * sigma_h));
}

/// Raw (un-normalized) diurnal shape: overnight floor, a broad daytime
/// plateau and an evening shoulder.
double raw_shape(double tod_h) noexcept
{
    return 0.33 + 0.52 * bump(tod_h, 13.0, 3.8) + 0.72 * bump(tod_h, 20.3, 2.2);
}

/// Median of the raw shape over a uniformly sampled day (computed once).
double raw_shape_median()
{
    static const double value = [] {
        std::vector<double> samples;
        samples.reserve(24 * 60);
        for (int i = 0; i < 24 * 60; ++i)
            samples.push_back(raw_shape(static_cast<double>(i) / 60.0));
        return ssplane::median(samples);
    }();
    return value;
}

} // namespace

double canonical_diurnal_shape(double tod_h) noexcept
{
    return raw_shape(tod_h) / raw_shape_median();
}

double canonical_diurnal_peak() noexcept
{
    static const double value = [] {
        double best = 0.0;
        for (int i = 0; i < 24 * 60; ++i)
            best = std::max(best, canonical_diurnal_shape(static_cast<double>(i) / 60.0));
        return best;
    }();
    return value;
}

site_ensemble::site_ensemble(const site_ensemble_options& options, std::uint64_t seed)
    : options_(options), seed_(seed)
{
}

tod_statistics site_ensemble::compute_tod_statistics() const
{
    rng root(seed_);
    // One bucket of normalized samples for each hour of day.
    std::array<std::vector<double>, 24> buckets;
    const std::size_t per_bucket = static_cast<std::size_t>(options_.n_sites) *
                                   static_cast<std::size_t>(options_.n_days);
    for (auto& b : buckets) b.reserve(per_bucket);

    std::vector<double> site_samples;
    site_samples.reserve(static_cast<std::size_t>(options_.n_days) * 24);

    for (int site = 0; site < options_.n_sites; ++site) {
        rng r = root.fork(static_cast<std::uint64_t>(site) + 1);
        const double phase_h = r.normal(0.0, 1.3);       // local habits differ
        const double day_strength = r.uniform(0.7, 1.3); // diurnal amplitude varies
        const double weekend_drop = r.uniform(0.55, 0.95);
        const double scale = r.lognormal(0.0, 1.0);      // absolute size varies a lot

        site_samples.clear();
        for (int day = 0; day < options_.n_days; ++day) {
            const bool weekend = (day % 7) >= 5;
            for (int hour = 0; hour < 24; ++hour) {
                const double shape =
                    1.0 + day_strength * (canonical_diurnal_shape(hour + 0.5 + phase_h) - 1.0);
                double x = scale * std::max(0.05, shape);
                if (weekend) x *= weekend_drop;
                x *= r.lognormal(0.0, noise_sigma_log);
                if (r.bernoulli(burst_probability)) {
                    x *= std::min(100.0, r.pareto(burst_pareto_min,
                                                  burst_pareto_alpha));
                }
                site_samples.push_back(x);
            }
        }

        const double site_median = ssplane::median(site_samples);
        if (site_median <= 0.0) continue;
        for (int day = 0; day < options_.n_days; ++day) {
            for (int hour = 0; hour < 24; ++hour) {
                const double normalized =
                    site_samples[static_cast<std::size_t>(day) * 24 + hour] / site_median;
                buckets[hour].push_back(100.0 * normalized); // percent of site median
            }
        }
    }

    tod_statistics stats;
    for (int hour = 0; hour < 24; ++hour) {
        stats.median_percent[hour] = ssplane::median(buckets[hour]);
        stats.p95_percent[hour] = ssplane::percentile(buckets[hour], 95.0);
    }
    return stats;
}

} // namespace ssplane::demand
