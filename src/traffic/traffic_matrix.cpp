#include "traffic/traffic_matrix.h"

#include <cmath>

#include "demand/cities.h"
#include "geo/geodesy.h"
#include "util/expects.h"

namespace ssplane::traffic {

namespace {

// Gravity denominator: distance^exponent, floored so near-coincident
// gateways keep finite weight.
constexpr double distance_exponent = 1.0;
constexpr double min_distance_km = 500.0;

} // namespace

std::vector<lsn::ground_station> stations_from_cities(int n,
                                                      double min_separation_deg)
{
    const auto cities = demand::top_cities(n, min_separation_deg);
    std::vector<lsn::ground_station> stations;
    stations.reserve(cities.size());
    for (const auto& c : cities)
        stations.push_back({c.name, c.latitude_deg, c.longitude_deg});
    return stations;
}

void validate(const traffic_matrix_options& options)
{
    expects(std::isfinite(options.total_demand_gbps) && options.total_demand_gbps >= 0.0,
            "total demand must be finite and non-negative");
}

traffic_matrix build_traffic_matrix(const demand::demand_model& demand,
                                    std::span<const lsn::ground_station> stations,
                                    const astro::instant& t,
                                    const traffic_matrix_options& options)
{
    validate(options);

    const int n = static_cast<int>(stations.size());
    traffic_matrix matrix;
    matrix.n_stations = n;
    matrix.demand_gbps.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                              0.0);

    std::vector<double> mass(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        mass[static_cast<std::size_t>(i)] = demand.demand_at(
            stations[static_cast<std::size_t>(i)].latitude_deg,
            stations[static_cast<std::size_t>(i)].longitude_deg, t);

    const auto cell = [&](int a, int b) -> double& {
        return matrix.demand_gbps[static_cast<std::size_t>(a) *
                                      static_cast<std::size_t>(n) +
                                  static_cast<std::size_t>(b)];
    };

    double weight_sum = 0.0;
    for (int a = 0; a + 1 < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
            const double distance_km =
                geo::surface_distance_m(stations[static_cast<std::size_t>(a)].latitude_deg,
                                        stations[static_cast<std::size_t>(a)].longitude_deg,
                                        stations[static_cast<std::size_t>(b)].latitude_deg,
                                        stations[static_cast<std::size_t>(b)].longitude_deg) /
                1000.0;
            const double w =
                mass[static_cast<std::size_t>(a)] * mass[static_cast<std::size_t>(b)] /
                std::pow(std::max(distance_km, min_distance_km), distance_exponent);
            cell(a, b) = w;
            cell(b, a) = w;
            weight_sum += w;
        }
    }
    if (weight_sum <= 0.0) return matrix;

    const double scale = options.total_demand_gbps / weight_sum;
    for (double& v : matrix.demand_gbps) v *= scale;
    matrix.total_gbps = options.total_demand_gbps;
    return matrix;
}

} // namespace ssplane::traffic
