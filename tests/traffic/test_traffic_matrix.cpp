#include "traffic/traffic_matrix.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "demand/cities.h"
#include "geo/geodesy.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::traffic {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

const demand::population_model& test_population()
{
    static const demand::population_model model;
    return model;
}

TEST(StationsFromCities, ReturnsRequestedCountOrderedByPopulation)
{
    const auto stations = stations_from_cities(12);
    ASSERT_EQ(stations.size(), 12u);
    // The gazetteer's largest metros lead the list.
    EXPECT_EQ(stations[0].name, "Tokyo");
    for (const auto& gs : stations) {
        EXPECT_FALSE(gs.name.empty());
        EXPECT_GE(gs.latitude_deg, -90.0);
        EXPECT_LE(gs.latitude_deg, 90.0);
    }
}

TEST(StationsFromCities, RespectsMinimumSeparation)
{
    const double min_sep_deg = 10.0;
    const auto stations = stations_from_cities(15, min_sep_deg);
    for (std::size_t i = 0; i < stations.size(); ++i) {
        for (std::size_t j = i + 1; j < stations.size(); ++j) {
            const double angle = geo::central_angle_rad(
                stations[i].latitude_deg, stations[i].longitude_deg,
                stations[j].latitude_deg, stations[j].longitude_deg);
            EXPECT_GE(angle, deg2rad(min_sep_deg));
        }
    }
}

TEST(StationsFromCities, RejectsImpossibleRequests)
{
    EXPECT_THROW(stations_from_cities(0), contract_violation);
    // No gazetteer can supply 100 metros all 60 degrees apart.
    EXPECT_THROW(stations_from_cities(100, 60.0), contract_violation);
}

TEST(TrafficMatrix, SymmetricNormalizedZeroDiagonal)
{
    const demand::demand_model model(test_population());
    const auto stations = stations_from_cities(8);
    traffic_matrix_options opts;
    opts.total_demand_gbps = 500.0;
    const auto matrix = build_traffic_matrix(model, stations,
                                             astro::instant::j2000(), opts);

    ASSERT_EQ(matrix.n_stations, 8);
    double pair_sum = 0.0;
    for (int a = 0; a < 8; ++a) {
        EXPECT_EQ(matrix.demand(a, a), 0.0);
        for (int b = 0; b < 8; ++b) {
            EXPECT_GE(matrix.demand(a, b), 0.0);
            EXPECT_DOUBLE_EQ(matrix.demand(a, b), matrix.demand(b, a));
            if (b > a) pair_sum += matrix.demand(a, b);
        }
    }
    EXPECT_NEAR(pair_sum, 500.0, 1e-9 * 500.0);
    EXPECT_DOUBLE_EQ(matrix.total_gbps, 500.0);
}

TEST(TrafficMatrix, FollowsTheDiurnalCycle)
{
    // The same gateway set offers a different matrix twelve hours later:
    // endpoint masses are evaluated at local solar time.
    const demand::demand_model model(test_population());
    const auto stations = stations_from_cities(6);
    const auto t0 = astro::instant::from_calendar(2026, 6, 1, 0);
    const auto m0 = build_traffic_matrix(model, stations, t0);
    const auto m12 = build_traffic_matrix(model, stations, t0.plus_seconds(12 * 3600.0));

    bool any_difference = false;
    for (int a = 0; a < 6; ++a)
        for (int b = a + 1; b < 6; ++b)
            any_difference |=
                std::abs(m0.demand(a, b) - m12.demand(a, b)) > 1e-9;
    EXPECT_TRUE(any_difference);
    // Normalization keeps the total fixed even as the shape shifts.
    EXPECT_DOUBLE_EQ(m0.total_gbps, m12.total_gbps);
}

TEST(TrafficMatrix, AllZeroMassesYieldZeroMatrix)
{
    const demand::demand_model model(test_population());
    // Mid-ocean "gateways": no population mass, so no gravity weight.
    const std::vector<lsn::ground_station> ocean = {
        {"Pacific", 0.0, -150.0}, {"South Atlantic", -40.0, -20.0}};
    const auto matrix = build_traffic_matrix(model, ocean, astro::instant::j2000());
    EXPECT_EQ(matrix.total_gbps, 0.0);
    EXPECT_EQ(matrix.demand(0, 1), 0.0);
}

TEST(TrafficMatrix, CoincidentGatewaysAreFlooredAtFiveHundredKm)
{
    // Two gateways on the same spot would divide by a zero distance; the
    // 500 km floor keeps their weight finite. The far pair uses the plain
    // inverse distance (exponent 1).
    const demand::demand_model model(test_population());
    const std::vector<lsn::ground_station> stations = {
        {"Tokyo A", 35.68, 139.69}, {"Tokyo B", 35.68, 139.69}, {"London", 51.51, -0.13}};
    const auto t = astro::instant::j2000();
    const double m_tokyo = model.demand_at(35.68, 139.69, t);
    const double m_london = model.demand_at(51.51, -0.13, t);
    ASSERT_GT(m_tokyo, 0.0);
    ASSERT_GT(m_london, 0.0);
    const double far_km = geo::surface_distance_m(35.68, 139.69, 51.51, -0.13) / 1000.0;
    ASSERT_GT(far_km, 500.0);

    const auto matrix = build_traffic_matrix(model, stations, t);
    for (const double v : matrix.demand_gbps) EXPECT_TRUE(std::isfinite(v));
    const double expected_ratio = (m_tokyo * m_tokyo / 500.0) / (m_tokyo * m_london / far_km);
    EXPECT_NEAR(matrix.demand(0, 1) / matrix.demand(0, 2), expected_ratio,
                1e-12 * expected_ratio);
    EXPECT_DOUBLE_EQ(matrix.demand(0, 2), matrix.demand(1, 2));
}

TEST(TrafficMatrix, ValidateRejectsBadTotalDemand)
{
    EXPECT_NO_THROW(validate(traffic_matrix_options{}));
    for (const double bad : {-1.0, inf, std::nan("")}) {
        traffic_matrix_options options;
        options.total_demand_gbps = bad;
        EXPECT_THROW(validate(options), contract_violation) << bad;
    }
    // The matrix builder runs the same check.
    const demand::demand_model model(test_population());
    traffic_matrix_options infinite;
    infinite.total_demand_gbps = inf;
    EXPECT_THROW(build_traffic_matrix(model, stations_from_cities(3),
                                      astro::instant::j2000(), infinite),
                 contract_violation);
}

} // namespace
} // namespace ssplane::traffic
