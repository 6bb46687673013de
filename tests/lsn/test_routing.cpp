#include "lsn/routing.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "lsn/scenario.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::lsn {
namespace {

/// Hand-built snapshot: a small weighted graph.
network_snapshot line_graph()
{
    //  0 --1ms-- 1 --2ms-- 2 --1ms-- 3     and a slow shortcut 0 --10ms-- 3
    network_snapshot snap;
    snap.n_satellites = 4;
    snap.n_ground = 0;
    snap.positions_ecef_m.resize(4);
    snap.adjacency.resize(4);
    const auto add = [&](int a, int b, double ms) {
        snap.adjacency[static_cast<std::size_t>(a)].push_back({b, ms / 1000.0});
        snap.adjacency[static_cast<std::size_t>(b)].push_back({a, ms / 1000.0});
    };
    add(0, 1, 1.0);
    add(1, 2, 2.0);
    add(2, 3, 1.0);
    add(0, 3, 10.0);
    return snap;
}

TEST(Routing, FindsShortestPath)
{
    const auto snap = line_graph();
    const auto route = shortest_route(snap, 0, 3);
    ASSERT_TRUE(route.reachable);
    EXPECT_NEAR(route.latency_s, 0.004, 1e-12);
    EXPECT_EQ(route.hops, 3);
    ASSERT_EQ(route.path.size(), 4u);
    EXPECT_EQ(route.path.front(), 0);
    EXPECT_EQ(route.path.back(), 3);
}

TEST(Routing, SourceEqualsDestination)
{
    const auto snap = line_graph();
    const auto route = shortest_route(snap, 2, 2);
    ASSERT_TRUE(route.reachable);
    EXPECT_EQ(route.latency_s, 0.0);
    EXPECT_EQ(route.hops, 0);
}

TEST(Routing, UnreachableNode)
{
    network_snapshot snap;
    snap.n_satellites = 3;
    snap.positions_ecef_m.resize(3);
    snap.adjacency.resize(3);
    snap.adjacency[0].push_back({1, 0.001});
    snap.adjacency[1].push_back({0, 0.001});
    const auto route = shortest_route(snap, 0, 2);
    EXPECT_FALSE(route.reachable);
    EXPECT_TRUE(route.path.empty());
}

TEST(Routing, PathEdgesExist)
{
    const auto snap = line_graph();
    const auto route = shortest_route(snap, 0, 2);
    ASSERT_TRUE(route.reachable);
    for (std::size_t i = 1; i < route.path.size(); ++i) {
        bool edge_found = false;
        for (const auto& e : snap.adjacency[static_cast<std::size_t>(route.path[i - 1])])
            edge_found |= (e.to == route.path[i]);
        EXPECT_TRUE(edge_found);
    }
}

TEST(Routing, InvalidNodesRejected)
{
    const auto snap = line_graph();
    EXPECT_THROW(shortest_route(snap, -1, 2), contract_violation);
    EXPECT_THROW(shortest_route(snap, 0, 4), contract_violation);
}

TEST(Routing, SingleSourceLatenciesMatchPointQueries)
{
    const auto snap = line_graph();
    shortest_path_search search;
    search.run(make_route_graph(snap), 0);
    const auto& dist = search.distances();
    ASSERT_EQ(dist.size(), 4u);
    EXPECT_EQ(dist[0], 0.0);
    for (int v = 1; v < 4; ++v)
        EXPECT_DOUBLE_EQ(dist[static_cast<std::size_t>(v)],
                         shortest_route(snap, 0, v).latency_s);
}

TEST(Routing, SingleSourceOnDisconnectedSnapshot)
{
    network_snapshot snap;
    snap.n_satellites = 4;
    snap.positions_ecef_m.resize(4);
    snap.adjacency.resize(4);
    snap.adjacency[0].push_back({1, 0.001});
    snap.adjacency[1].push_back({0, 0.001});
    // Nodes 2 and 3 form a separate (edgeless) component.
    const route_graph graph = make_route_graph(snap);
    shortest_path_search search;
    search.run(graph, 0);
    EXPECT_DOUBLE_EQ(search.distance(1), 0.001);
    EXPECT_EQ(search.distance(2), std::numeric_limits<double>::infinity());
    EXPECT_EQ(search.distance(3), std::numeric_limits<double>::infinity());
    EXPECT_THROW(search.run(graph, 9), contract_violation);
}

TEST(Routing, RouteTreeMatchesPointQueries)
{
    const auto snap = line_graph();
    shortest_path_search search;
    search.run(make_route_graph(snap), 0);
    ASSERT_EQ(search.distances().size(), 4u);
    EXPECT_EQ(search.prev_node(0), -1);
    for (int v = 0; v < 4; ++v) {
        const auto route = shortest_route(snap, 0, v);
        ASSERT_TRUE(search.reachable(v));
        EXPECT_DOUBLE_EQ(search.distance(v), route.latency_s);
        EXPECT_EQ(search.path_to(v), route.path);
    }
    EXPECT_THROW(search.path_to(9), contract_violation);
}

TEST(Routing, RouteTreeOnDisconnectedSnapshot)
{
    network_snapshot snap;
    snap.n_satellites = 3;
    snap.positions_ecef_m.resize(3);
    snap.adjacency.resize(3);
    snap.adjacency[0].push_back({1, 0.001});
    snap.adjacency[1].push_back({0, 0.001});
    shortest_path_search search;
    search.run(make_route_graph(snap), 0);
    EXPECT_TRUE(search.reachable(1));
    EXPECT_FALSE(search.reachable(2));
    EXPECT_EQ(search.prev_node(2), -1);
    EXPECT_TRUE(search.path_to(2).empty());
}

TEST(Routing, PathConsistencyOnSampledSnapshot)
{
    // All station pairs of a real (sparse, partially disconnected) snapshot:
    // the point query and the full single-source pass must agree exactly,
    // including on unreachable pairs, and a pass that stops once a target
    // set is settled must agree with the full pass on every target.
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 10;
    params.sats_per_plane = 10;
    params.phasing_f = 1;
    const auto topo = build_walker_grid_topology(params);
    // Mid-latitude metros connect through this grid; Anchorage (61°N) sits
    // above the 53°-inclination coverage band, so the disconnected branch
    // is exercised too.
    const auto stations = default_ground_stations();
    const auto snap = snapshot_at(topo, stations, astro::instant::j2000(),
                                  astro::instant::j2000(), deg2rad(25.0));
    const route_graph graph = make_route_graph(snap);

    const int n = static_cast<int>(stations.size());
    bool any_reachable = false;
    bool any_unreachable = false;
    shortest_path_search full;
    shortest_path_search targeted;
    for (int a = 0; a < n; ++a) {
        full.run(graph, snap.ground_node(a));
        std::vector<int> later_grounds;
        for (int b = a + 1; b < n; ++b) later_grounds.push_back(snap.ground_node(b));
        targeted.run(graph, snap.ground_node(a), later_grounds);
        for (const int t : later_grounds) {
            EXPECT_EQ(targeted.distance(t), full.distance(t));
            EXPECT_EQ(targeted.path_to(t), full.path_to(t));
        }
        for (int b = 0; b < n; ++b) {
            if (b == a) continue;
            const auto route = ground_route(snap, a, b);
            const double d = full.distance(snap.ground_node(b));
            if (route.reachable) {
                any_reachable = true;
                EXPECT_DOUBLE_EQ(route.latency_s, d);
                EXPECT_EQ(full.path_to(snap.ground_node(b)), route.path);
            } else {
                any_unreachable = true;
                EXPECT_EQ(d, std::numeric_limits<double>::infinity());
            }
        }
    }
    EXPECT_TRUE(any_reachable);
    EXPECT_TRUE(any_unreachable);
}

TEST(Routing, GroundRouteRejectsOutOfRangeIndices)
{
    network_snapshot snap;
    snap.n_satellites = 1;
    snap.n_ground = 2;
    snap.positions_ecef_m.resize(3);
    snap.adjacency.resize(3);
    EXPECT_THROW(ground_route(snap, -1, 1), contract_violation);
    EXPECT_THROW(ground_route(snap, 0, 2), contract_violation);
    EXPECT_THROW(snap.ground_node(-1), contract_violation);
    EXPECT_THROW(snap.ground_node(2), contract_violation);
}

TEST(Routing, GroundRouteUsesGroundIndices)
{
    network_snapshot snap;
    snap.n_satellites = 1;
    snap.n_ground = 2;
    snap.positions_ecef_m.resize(3);
    snap.adjacency.resize(3);
    // ground0 <-> sat0 <-> ground1
    snap.adjacency[1].push_back({0, 0.002});
    snap.adjacency[0].push_back({1, 0.002});
    snap.adjacency[0].push_back({2, 0.003});
    snap.adjacency[2].push_back({0, 0.003});
    const auto route = ground_route(snap, 0, 1);
    ASSERT_TRUE(route.reachable);
    EXPECT_NEAR(route.latency_s, 0.005, 1e-12);
    EXPECT_EQ(route.hops, 2);
}

} // namespace
} // namespace ssplane::lsn
