#include "traffic/flow_assignment.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include <gtest/gtest.h>

#include "lsn/routing.h"
#include "obs/metrics.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ssplane::traffic {
namespace {

void add_edge(lsn::network_snapshot& snap, int a, int b, double latency_ms)
{
    snap.adjacency[static_cast<std::size_t>(a)].push_back({b, latency_ms / 1000.0});
    snap.adjacency[static_cast<std::size_t>(b)].push_back({a, latency_ms / 1000.0});
}

/// ground0 -- sat0 -- sat1 -- ground1 chain (one path, one ISL).
lsn::network_snapshot chain_snapshot()
{
    lsn::network_snapshot snap;
    snap.n_satellites = 2;
    snap.n_ground = 2;
    snap.positions_ecef_m.resize(4);
    snap.adjacency.resize(4);
    add_edge(snap, 2, 0, 3.0); // g0 - s0 uplink
    add_edge(snap, 0, 1, 5.0); // s0 - s1 ISL
    add_edge(snap, 1, 3, 3.0); // s1 - g1 uplink
    return snap;
}

traffic_matrix single_pair_matrix(double demand_gbps)
{
    traffic_matrix matrix;
    matrix.n_stations = 2;
    matrix.demand_gbps = {0.0, demand_gbps, demand_gbps, 0.0};
    matrix.total_gbps = demand_gbps;
    return matrix;
}

TEST(FlowAssignment, DeliversWithinCapacity)
{
    capacity_options opts;
    opts.isl_capacity_gbps = 20.0;
    opts.uplink_capacity_gbps = 40.0;
    const auto result = assign_flows(chain_snapshot(), single_pair_matrix(10.0), opts);

    EXPECT_DOUBLE_EQ(result.offered_gbps, 10.0);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 10.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 1.0);
    EXPECT_DOUBLE_EQ(result.pair_delivered(0, 1), 10.0);
    EXPECT_EQ(result.n_links, 3);
    EXPECT_EQ(result.congested_links, 0);
    // The single ISL carries the whole flow at 10/20 utilization; it is the
    // most loaded link on the path.
    EXPECT_DOUBLE_EQ(result.max_utilization, 0.5);
    EXPECT_NEAR(result.mean_path_latency_ms, 11.0, 1e-12);
}

TEST(FlowAssignment, CapacityBoundsDeliveredThroughput)
{
    capacity_options opts;
    opts.isl_capacity_gbps = 6.0;
    opts.uplink_capacity_gbps = 40.0;
    opts.k_rounds = 4;
    const auto result = assign_flows(chain_snapshot(), single_pair_matrix(10.0), opts);

    // The only path's bottleneck is the 6 Gbps ISL; the spill has nowhere
    // to go in later rounds.
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 6.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 0.6);
    EXPECT_EQ(result.congested_links, 1);
    EXPECT_DOUBLE_EQ(result.max_utilization, 1.0);
}

/// Two disjoint ground-to-ground paths: via sat0 (shorter) or sat1.
lsn::network_snapshot diamond_snapshot()
{
    lsn::network_snapshot snap;
    snap.n_satellites = 2;
    snap.n_ground = 2;
    snap.positions_ecef_m.resize(4);
    snap.adjacency.resize(4);
    add_edge(snap, 2, 0, 3.0); // g0 - s0
    add_edge(snap, 0, 3, 3.0); // s0 - g1  (total 6 ms)
    add_edge(snap, 2, 1, 4.0); // g0 - s1
    add_edge(snap, 1, 3, 4.0); // s1 - g1  (total 8 ms)
    return snap;
}

TEST(FlowAssignment, SpillsToAlternatePathsAcrossRounds)
{
    capacity_options opts;
    opts.uplink_capacity_gbps = 10.0;
    opts.isl_capacity_gbps = 10.0;
    opts.k_rounds = 2;
    const auto result = assign_flows(diamond_snapshot(), single_pair_matrix(15.0), opts);

    // Round 1 fills the short path (10), round 2 spills 5 onto the long one.
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 15.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 1.0);
    EXPECT_NEAR(result.mean_path_latency_ms, (10.0 * 6.0 + 5.0 * 8.0) / 15.0, 1e-12);

    // A single round can only use the shortest path.
    opts.k_rounds = 1;
    const auto one_round =
        assign_flows(diamond_snapshot(), single_pair_matrix(15.0), opts);
    EXPECT_DOUBLE_EQ(one_round.delivered_gbps, 10.0);
}

TEST(FlowAssignment, UnreachablePairsDeliverNothing)
{
    lsn::network_snapshot snap;
    snap.n_satellites = 1;
    snap.n_ground = 2;
    snap.positions_ecef_m.resize(3);
    snap.adjacency.resize(3);
    add_edge(snap, 1, 0, 3.0); // only g0 sees the satellite

    const auto result = assign_flows(snap, single_pair_matrix(10.0));
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 0.0);
    EXPECT_DOUBLE_EQ(result.pair_delivered(0, 1), 0.0);
}

TEST(FlowAssignment, NaiveBaselineAgreesOnSimpleGraphs)
{
    capacity_options opts;
    opts.isl_capacity_gbps = 6.0;
    opts.uplink_capacity_gbps = 40.0;
    const auto fast = assign_flows(chain_snapshot(), single_pair_matrix(10.0), opts);
    const auto naive =
        assign_flows_per_pair_baseline(chain_snapshot(), single_pair_matrix(10.0), opts);
    EXPECT_DOUBLE_EQ(fast.delivered_gbps, naive.delivered_gbps);
    EXPECT_DOUBLE_EQ(fast.mean_path_latency_ms, naive.mean_path_latency_ms);

    const auto fast_d = assign_flows(diamond_snapshot(), single_pair_matrix(15.0));
    const auto naive_d =
        assign_flows_per_pair_baseline(diamond_snapshot(), single_pair_matrix(15.0));
    EXPECT_DOUBLE_EQ(fast_d.delivered_gbps, naive_d.delivered_gbps);
}

TEST(FlowAssignment, RejectsMismatchedMatrix)
{
    traffic_matrix matrix;
    matrix.n_stations = 3;
    matrix.demand_gbps.assign(9, 0.0);
    EXPECT_THROW(assign_flows(chain_snapshot(), matrix), contract_violation);

    capacity_options opts;
    opts.k_rounds = 0;
    EXPECT_THROW(assign_flows(chain_snapshot(), single_pair_matrix(1.0), opts),
                 contract_violation);
}

TEST(FlowAssignment, ValidateRejectsDegenerateCapacityOptions)
{
    EXPECT_NO_THROW(validate(capacity_options{}));

    capacity_options opts;
    opts.isl_capacity_gbps = 0.0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.isl_capacity_gbps = -5.0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.uplink_capacity_gbps = 0.0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.k_rounds = 0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.k_rounds = -3;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.congestion_penalty = -1.0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.congested_threshold = 0.0;
    EXPECT_THROW(validate(opts), contract_violation);

    // Degenerate knobs are rejected at the assignment entry too, not just
    // by explicit validate() calls.
    opts = {};
    opts.uplink_capacity_gbps = -1.0;
    EXPECT_THROW(assign_flows(chain_snapshot(), single_pair_matrix(1.0), opts),
                 contract_violation);
    EXPECT_THROW(assign_flows_per_pair_baseline(chain_snapshot(),
                                                single_pair_matrix(1.0), opts),
                 contract_violation);
}

TEST(FlowAssignment, RepeatedPairIsOneLink)
{
    // The s0-s1 ISL listed twice: one link carries the pair's whole load,
    // with no zero-load twin in the link table.
    auto doubled = chain_snapshot();
    add_edge(doubled, 0, 1, 5.0);
    capacity_options opts;
    opts.isl_capacity_gbps = 10.0;
    const auto result = assign_flows(doubled, single_pair_matrix(15.0), opts);
    EXPECT_EQ(result.n_links, 3);
    ASSERT_EQ(result.links.size(), 3u);
    for (const auto& link : result.links) {
        if (!link.uplink) {
            EXPECT_DOUBLE_EQ(link.load_gbps, 10.0);
        }
    }
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 10.0);
}

TEST(FlowAssignment, AsymmetricAdjacencyIsRejected)
{
    // One direction of the s0-s1 ISL only, listed from either end.
    for (const auto& [from, to] : {std::pair{0, 1}, std::pair{1, 0}}) {
        auto one_way = chain_snapshot();
        auto& row = one_way.adjacency[static_cast<std::size_t>(to)];
        row.erase(std::find_if(row.begin(), row.end(),
                               [&](const auto& e) { return e.to == from; }));
        EXPECT_THROW(assign_flows(one_way, single_pair_matrix(1.0)), contract_violation)
            << from << " -> " << to;
    }
}

// --- Reference: the assignment before the CSR route graph -----------------
//
// A copy of the earlier `assign_flows`: a `network_snapshot` weight graph
// rebuilt every round with saturated links dropped, a Dijkstra that stops
// only once every ground node is settled, and paths mapped to links by
// scanning adjacency rows. The current code must reproduce it exactly.
namespace reference {

constexpr double flow_eps_gbps = 1e-9;
constexpr double inf = std::numeric_limits<double>::infinity();

struct edge_table {
    lsn::snapshot_links ids;
    std::vector<link_load> links;
};

edge_table build_edge_table(const lsn::network_snapshot& snapshot,
                            const capacity_options& options)
{
    edge_table table{lsn::number_links(snapshot), {}};
    for (const auto& id : table.ids.links) {
        link_load link;
        link.a = id.a;
        link.b = id.b;
        link.latency_s = id.latency_s;
        link.uplink = id.b >= snapshot.n_satellites;
        link.capacity_gbps =
            link.uplink ? options.uplink_capacity_gbps : options.isl_capacity_gbps;
        table.links.push_back(link);
    }
    return table;
}

lsn::network_snapshot make_weight_graph(const lsn::network_snapshot& snapshot,
                                        const edge_table& table,
                                        const capacity_options& options)
{
    lsn::network_snapshot weights;
    weights.n_satellites = snapshot.n_satellites;
    weights.n_ground = snapshot.n_ground;
    weights.adjacency.resize(snapshot.adjacency.size());
    for (int u = 0; u < static_cast<int>(snapshot.adjacency.size()); ++u) {
        const auto& in = snapshot.adjacency[static_cast<std::size_t>(u)];
        for (std::size_t j = 0; j < in.size(); ++j) {
            const auto& link = table.links[static_cast<std::size_t>(table.ids.at(u, j))];
            if (link.capacity_gbps - link.load_gbps <= flow_eps_gbps) continue;
            weights.adjacency[static_cast<std::size_t>(u)].push_back(
                {in[j].to, in[j].latency_s * (1.0 + options.congestion_penalty *
                                                        link.utilization())});
        }
    }
    return weights;
}

/// Node path from `src` to `dst`; a negative `dst` runs until every ground
/// node is settled and leaves the tree in `prev` instead. Counts into `runs`.
std::vector<int> dijkstra(const lsn::network_snapshot& g, int src, int dst,
                          std::vector<int>& prev, int& runs)
{
    ++runs;
    std::vector<double> dist(g.adjacency.size(), inf);
    prev.assign(g.adjacency.size(), -1);
    using item = std::pair<double, int>;
    std::priority_queue<item, std::vector<item>, std::greater<>> queue;
    int grounds_unsettled = g.n_ground;
    dist[static_cast<std::size_t>(src)] = 0.0;
    queue.emplace(0.0, src);
    while (!queue.empty()) {
        const auto [d, u] = queue.top();
        queue.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;
        if (u == dst) break;
        if (dst < 0 && u >= g.n_satellites && --grounds_unsettled == 0 && u != src)
            break;
        for (const auto& e : g.adjacency[static_cast<std::size_t>(u)]) {
            const double nd = d + e.latency_s;
            if (nd < dist[static_cast<std::size_t>(e.to)]) {
                dist[static_cast<std::size_t>(e.to)] = nd;
                prev[static_cast<std::size_t>(e.to)] = u;
                queue.emplace(nd, e.to);
            }
        }
    }
    if (dst < 0 || dist[static_cast<std::size_t>(dst)] == inf) return {};
    std::vector<int> path;
    for (int v = dst; v != -1; v = prev[static_cast<std::size_t>(v)]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

std::vector<int> tree_path(const std::vector<int>& prev, int src, int node)
{
    if (node != src && prev[static_cast<std::size_t>(node)] == -1) return {};
    std::vector<int> path;
    for (int v = node; v != -1; v = prev[static_cast<std::size_t>(v)]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

double place_flow_on_path(const lsn::network_snapshot& snapshot,
                          const std::vector<int>& path, double remaining,
                          edge_table& table, double& latency_flow_sum_s)
{
    if (path.size() < 2) return 0.0;
    const auto hop = [&](std::size_t i) -> link_load& {
        const auto& out = snapshot.adjacency[static_cast<std::size_t>(path[i - 1])];
        std::size_t j = 0;
        while (out[j].to != path[i]) ++j;
        return table.links[static_cast<std::size_t>(table.ids.at(path[i - 1], j))];
    };
    double bottleneck = inf;
    double path_latency_s = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
        bottleneck = std::min(bottleneck, hop(i).capacity_gbps - hop(i).load_gbps);
        path_latency_s += hop(i).latency_s;
    }
    const double flow = std::min(remaining, bottleneck);
    if (flow <= flow_eps_gbps) return 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) hop(i).load_gbps += flow;
    latency_flow_sum_s += flow * path_latency_s;
    return flow;
}

/// The earlier fast path (`per_pair` false) or per-pair baseline (true).
/// `runs` counts Dijkstra passes.
flow_result assign(const lsn::network_snapshot& snapshot, const traffic_matrix& matrix,
                   const capacity_options& options, bool per_pair, int& runs)
{
    const int n = matrix.n_stations;
    edge_table table = build_edge_table(snapshot, options);
    std::vector<double> remaining(matrix.demand_gbps);
    std::vector<double> pair_delivered(static_cast<std::size_t>(n * n), 0.0);
    const auto at = [n](std::vector<double>& m, int a, int b) -> double& {
        return m[static_cast<std::size_t>(a * n + b)];
    };
    double offered = 0.0;
    for (int a = 0; a + 1 < n; ++a)
        for (int b = a + 1; b < n; ++b) offered += at(remaining, a, b);
    double delivered = 0.0;
    double latency_flow_sum_s = 0.0;
    double total_remaining = offered;
    std::vector<int> prev;
    for (int round = 0; round < options.k_rounds && total_remaining > flow_eps_gbps;
         ++round) {
        double round_flow = 0.0;
        lsn::network_snapshot weights;
        if (!per_pair) weights = make_weight_graph(snapshot, table, options);
        for (int a = 0; a + 1 < n; ++a) {
            bool tree = false;
            for (int b = a + 1; b < n; ++b) {
                double& pair_remaining = at(remaining, a, b);
                if (pair_remaining <= flow_eps_gbps) continue;
                std::vector<int> path;
                if (per_pair) {
                    weights = make_weight_graph(snapshot, table, options);
                    path = dijkstra(weights, snapshot.ground_node(a),
                                    snapshot.ground_node(b), prev, runs);
                } else {
                    if (!tree)
                        dijkstra(weights, snapshot.ground_node(a), -1, prev, runs);
                    tree = true;
                    path = tree_path(prev, snapshot.ground_node(a), snapshot.ground_node(b));
                }
                const double flow = place_flow_on_path(snapshot, path, pair_remaining,
                                                       table, latency_flow_sum_s);
                if (flow <= 0.0) continue;
                pair_remaining -= flow;
                total_remaining -= flow;
                delivered += flow;
                round_flow += flow;
                at(pair_delivered, a, b) += flow;
                at(pair_delivered, b, a) += flow;
            }
        }
        if (round_flow <= flow_eps_gbps) break;
    }

    flow_result result;
    result.n_stations = n;
    result.offered_gbps = offered;
    result.delivered_gbps = delivered;
    result.delivered_fraction = offered > 0.0 ? delivered / offered : 1.0;
    result.latency_flow_sum_gbps_s = latency_flow_sum_s;
    result.mean_path_latency_ms =
        delivered > 0.0 ? latency_flow_sum_s / delivered * 1000.0 : 0.0;
    result.pair_delivered_gbps = std::move(pair_delivered);
    result.links = std::move(table.links);
    result.n_links = static_cast<int>(result.links.size());
    std::vector<double> utilization;
    for (const auto& link : result.links) utilization.push_back(link.utilization());
    std::sort(utilization.begin(), utilization.end());
    result.mean_utilization = mean(utilization);
    result.p95_utilization = percentile_sorted(utilization, 95.0);
    result.max_utilization = utilization.empty() ? 0.0 : utilization.back();
    result.congested_links = static_cast<int>(std::count_if(
        utilization.begin(), utilization.end(),
        [&](double u) { return u >= options.congested_threshold; }));
    return result;
}

} // namespace reference

/// A real sparse snapshot (10x10 Walker shell, the dozen default metros)
/// with gateway `dark` cut off from every satellite.
lsn::network_snapshot sampled_snapshot(int dark)
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 10;
    params.sats_per_plane = 10;
    params.phasing_f = 1;
    const auto topo = lsn::build_walker_grid_topology(params);
    auto snap = lsn::snapshot_at(topo, lsn::default_ground_stations(),
                                 astro::instant::j2000(), astro::instant::j2000(),
                                 deg2rad(25.0));
    const int node = snap.ground_node(dark);
    snap.adjacency[static_cast<std::size_t>(node)].clear();
    for (auto& row : snap.adjacency)
        std::erase_if(row, [&](const auto& e) { return e.to == node; });
    return snap;
}

/// Seeded symmetric demand; station `idle` is owed nothing by anyone.
traffic_matrix sampled_matrix(int n, int idle)
{
    traffic_matrix matrix;
    matrix.n_stations = n;
    matrix.demand_gbps.assign(static_cast<std::size_t>(n * n), 0.0);
    rng r(17);
    for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < n; ++b) {
            const double d = a == idle || b == idle ? 0.0 : 1.0 + 9.0 * r.uniform();
            matrix.demand_gbps[static_cast<std::size_t>(a * n + b)] = d;
            matrix.demand_gbps[static_cast<std::size_t>(b * n + a)] = d;
            matrix.total_gbps += d;
        }
    return matrix;
}

TEST(FlowAssignment, MatchesTheAllGroundWeightGraphReference)
{
    constexpr int dark = 3;
    constexpr int idle = 5;
    const auto snap = sampled_snapshot(dark);
    ASSERT_TRUE(snap.adjacency[static_cast<std::size_t>(snap.ground_node(dark))].empty());
    const auto matrix = sampled_matrix(snap.n_ground, idle);

    std::vector<std::pair<const char*, capacity_options>> cases;
    cases.push_back({"default", {}});
    capacity_options tight; // saturates ISLs in the first round
    tight.isl_capacity_gbps = 0.5;
    cases.push_back({"tight", tight});
    capacity_options flat;
    flat.congestion_penalty = 0.0;
    cases.push_back({"no_penalty", flat});
    for (const int k : {1, 6}) {
        capacity_options rounds;
        rounds.k_rounds = k;
        cases.push_back({k == 1 ? "k1" : "k6", rounds});
        rounds.isl_capacity_gbps = 0.5;
        cases.push_back({k == 1 ? "tight_k1" : "tight_k6", rounds});
    }

    const obs::counter& dijkstra_runs =
        obs::registry::instance().get_counter("lsn.dijkstra.runs");
    for (const auto& [name, options] : cases) {
        for (const bool per_pair : {false, true}) {
            int reference_runs = 0;
            const flow_result expected =
                reference::assign(snap, matrix, options, per_pair, reference_runs);
            const std::uint64_t before = dijkstra_runs.value();
            const flow_result actual =
                per_pair ? assign_flows_per_pair_baseline(snap, matrix, options)
                         : assign_flows(snap, matrix, options);
            EXPECT_EQ(dijkstra_runs.value() - before,
                      static_cast<std::uint64_t>(reference_runs))
                << name << " per_pair=" << per_pair;
            EXPECT_TRUE(actual == expected) << name << " per_pair=" << per_pair;
            EXPECT_EQ(actual.links, expected.links) << name;
            EXPECT_EQ(actual.pair_delivered_gbps, expected.pair_delivered_gbps) << name;
            EXPECT_EQ(actual.delivered_gbps, expected.delivered_gbps) << name;
            EXPECT_EQ(actual.latency_flow_sum_gbps_s, expected.latency_flow_sum_gbps_s)
                << name;
            // The cases exercise what they claim: the dark gateway and the
            // idle source get nothing, and a tight ISL cap saturates links.
            EXPECT_GT(actual.delivered_gbps, 0.0) << name;
            for (int b = 0; b < matrix.n_stations; ++b) {
                EXPECT_EQ(actual.pair_delivered(dark, b), 0.0) << name;
                EXPECT_EQ(actual.pair_delivered(idle, b), 0.0) << name;
            }
            if (options.isl_capacity_gbps == 0.5) {
                EXPECT_GT(actual.congested_links, 0) << name;
                EXPECT_LT(actual.delivered_fraction, 1.0) << name;
            }
        }
    }
}

} // namespace
} // namespace ssplane::traffic
