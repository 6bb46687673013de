#include "tempo/time_expanded_graph.h"

#include <utility>

#include <gtest/gtest.h>

#include "util/expects.h"

namespace ssplane::tempo {
namespace {

void add_edge(lsn::network_snapshot& snap, int a, int b, double latency_ms)
{
    snap.adjacency[static_cast<std::size_t>(a)].push_back({b, latency_ms / 1000.0});
    snap.adjacency[static_cast<std::size_t>(b)].push_back({a, latency_ms / 1000.0});
}

/// Empty 2-satellite / 2-ground snapshot; tests wire links per step.
lsn::network_snapshot blank_snapshot()
{
    lsn::network_snapshot snap;
    snap.n_satellites = 2;
    snap.n_ground = 2;
    snap.positions_ecef_m.resize(4);
    snap.adjacency.resize(4);
    return snap;
}

/// g0 -- s0 -- s1 -- g1 chain.
lsn::network_snapshot chain_snapshot()
{
    auto snap = blank_snapshot();
    add_edge(snap, 2, 0, 3.0); // g0 - s0 uplink
    add_edge(snap, 0, 1, 5.0); // s0 - s1 ISL
    add_edge(snap, 1, 3, 3.0); // s1 - g1 uplink
    return snap;
}

TEST(TimeExpandedGraph, BuildsSlotsAndArcsFromSnapshots)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    bulk_route_options opts;
    opts.capacity.isl_capacity_gbps = 20.0;
    opts.capacity.uplink_capacity_gbps = 40.0;
    opts.sat_buffer_gb = 10.0;
    const auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, opts);

    EXPECT_EQ(graph.n_satellites, 2);
    EXPECT_EQ(graph.n_ground, 2);
    EXPECT_EQ(graph.n_steps, 2);
    EXPECT_EQ(graph.n_time_nodes(), 8);
    ASSERT_EQ(graph.dwell_s.size(), 2u);
    EXPECT_DOUBLE_EQ(graph.dwell_s[0], 600.0);
    EXPECT_DOUBLE_EQ(graph.dwell_s[1], 600.0); // inferred from the grid

    // 3 transmission slots per step + 2 satellite storage slots between them.
    ASSERT_EQ(graph.slots.size(), 8u);
    int n_storage = 0;
    int n_uplink = 0;
    for (const auto& s : graph.slots) {
        if (s.storage) {
            ++n_storage;
            EXPECT_DOUBLE_EQ(s.capacity_gb, 10.0);
            EXPECT_LT(s.a, graph.n_satellites);
        } else if (s.uplink) {
            ++n_uplink;
            EXPECT_DOUBLE_EQ(s.capacity_gb, 40.0 * 600.0);
        } else {
            EXPECT_DOUBLE_EQ(s.capacity_gb, 20.0 * 600.0);
        }
    }
    EXPECT_EQ(n_storage, 2);
    EXPECT_EQ(n_uplink, 4);

    // 6 directed transmission arcs per step, 2 satellite + 2 ground storage
    // arcs between the steps.
    EXPECT_EQ(graph.arcs.size(), 16u);
    EXPECT_EQ(graph.arc_begin.size(),
              static_cast<std::size_t>(graph.n_time_nodes()) + 1);
    EXPECT_EQ(graph.arc_begin.back(), static_cast<std::int64_t>(graph.arcs.size()));
}

TEST(TimeExpandedGraph, ZeroBufferDropsSatelliteStorageArcs)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    bulk_route_options opts;
    opts.sat_buffer_gb = 0.0;
    const auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, opts);

    for (const auto& s : graph.slots) EXPECT_FALSE(s.storage);
    // Ground storage survives: 12 transmission arcs + 2 ground storage arcs.
    EXPECT_EQ(graph.arcs.size(), 14u);
}

TEST(TimeExpandedGraph, FailedSatellitesLoseStorage)
{
    // The snapshots a failure-aware builder would hand us: s0 dead.
    auto dead_s0 = blank_snapshot();
    add_edge(dead_s0, 1, 3, 3.0);
    const std::vector<lsn::network_snapshot> snaps{dead_s0, dead_s0};
    const std::vector<double> offsets{0.0, 600.0};
    const std::vector<std::uint8_t> failed{1, 0};
    const auto graph = build_time_expanded_graph_timeline(
        snaps, offsets, lsn::failure_timeline::from_static_mask(failed), {});

    int n_storage = 0;
    for (const auto& s : graph.slots) {
        if (!s.storage) continue;
        ++n_storage;
        EXPECT_EQ(s.a, 1); // only the live satellite buffers
    }
    EXPECT_EQ(n_storage, 1);
}

TEST(TimeExpandedGraph, ResetLoadsAndHighWater)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, {});
    for (auto& s : graph.slots)
        if (s.storage && s.a == 1) s.load_gb = 7.0;

    const auto high_water = graph.satellite_buffer_high_water_gb();
    ASSERT_EQ(high_water.size(), 2u);
    EXPECT_DOUBLE_EQ(high_water[0], 0.0);
    EXPECT_DOUBLE_EQ(high_water[1], 7.0);

    graph.reset_loads();
    for (const auto& s : graph.slots) EXPECT_DOUBLE_EQ(s.load_gb, 0.0);
}

TEST(TimeExpandedGraph, ValidatesOptionsAndGrid)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot()};
    const std::vector<double> one_offset{0.0};

    // Single-step grids need an explicit last dwell...
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, one_offset, {}, {}),
                 contract_violation);
    // ...and work once it is given.
    bulk_route_options opts;
    opts.last_step_s = 300.0;
    const auto graph = build_time_expanded_graph_timeline(snaps, one_offset, {}, opts);
    EXPECT_DOUBLE_EQ(graph.dwell_s[0], 300.0);

    bulk_route_options bad = opts;
    bad.sat_buffer_gb = -1.0;
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, one_offset, {}, bad),
                 contract_violation);
    bad = opts;
    bad.capacity.isl_capacity_gbps = 0.0;
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, one_offset, {}, bad),
                 contract_violation);

    // Non-increasing offsets are rejected.
    const std::vector<double> decreasing{0.0, -1.0};
    const std::vector<lsn::network_snapshot> two{chain_snapshot(), chain_snapshot()};
    EXPECT_THROW(build_time_expanded_graph_timeline(two, decreasing, {}, {}),
                 contract_violation);
}

TEST(TimeExpandedGraph, TimelineGatesStoragePerStep)
{
    // s0 dies at step 1: it buffers across 0 -> 1 but not across 1 -> 2.
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0, 1200.0};
    lsn::failure_timeline timeline;
    timeline.n_satellites = 2;
    timeline.n_steps = 3;
    timeline.masks = {0, 0, /**/ 1, 0, /**/ 1, 0};
    const auto graph =
        build_time_expanded_graph_timeline(snaps, offsets, timeline, {});

    int s0_storage = 0;
    int s1_storage = 0;
    for (const auto& s : graph.slots) {
        if (!s.storage) continue;
        if (s.a == 0) {
            ++s0_storage;
            EXPECT_EQ(s.step, 0); // only before its failure step
        } else {
            ++s1_storage;
        }
    }
    EXPECT_EQ(s0_storage, 1);
    EXPECT_EQ(s1_storage, 2);
}

TEST(TimeExpandedGraph, TimelineSatelliteCountMismatchIsRejected)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    lsn::failure_timeline wrong;
    wrong.n_satellites = 3; // snapshots carry 2
    wrong.n_steps = 1;
    wrong.masks = {0, 0, 0};
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, offsets, wrong, {}),
                 contract_violation);
}

TEST(TimeExpandedGraph, RepeatedPairSharesOneTransmissionSlotPerStep)
{
    // The s0-s1 ISL listed twice: both slots of each direction map to the
    // pair's one link, so each step holds one capacity slot per pair.
    auto doubled = chain_snapshot();
    add_edge(doubled, 0, 1, 5.0);
    const std::vector<lsn::network_snapshot> snaps{doubled, doubled};
    const std::vector<double> offsets{0.0, 600.0};
    bulk_route_options opts;
    opts.sat_buffer_gb = 0.0; // transmission slots only
    const auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, opts);

    ASSERT_EQ(graph.slots.size(), 6u); // 3 distinct pairs x 2 steps
    for (int step = 0; step < 2; ++step) {
        int isl_slot = -1;
        for (int tn : {graph.time_node(0, step), graph.time_node(1, step)})
            for (auto k = graph.arc_begin[static_cast<std::size_t>(tn)];
                 k < graph.arc_begin[static_cast<std::size_t>(tn) + 1]; ++k) {
                const auto& arc = graph.arcs[static_cast<std::size_t>(k)];
                const auto& slot = graph.slots[static_cast<std::size_t>(arc.slot)];
                EXPECT_EQ(slot.step, step);
                if (slot.uplink) continue;
                if (isl_slot < 0) isl_slot = arc.slot;
                EXPECT_EQ(arc.slot, isl_slot) << "step " << step;
            }
        EXPECT_GE(isl_slot, 0);
    }
}

TEST(TimeExpandedGraph, AsymmetricAdjacencyIsRejected)
{
    const std::vector<double> offsets{0.0, 600.0};
    // One direction of the s0-s1 ISL only, listed from either end.
    for (const auto& [from, to] : {std::pair{0, 1}, std::pair{1, 0}}) {
        auto one_way = blank_snapshot();
        one_way.adjacency[static_cast<std::size_t>(from)].push_back({to, 0.005});
        const std::vector<lsn::network_snapshot> snaps{chain_snapshot(), one_way};
        EXPECT_THROW(build_time_expanded_graph_timeline(snaps, offsets, {}, {}),
                     contract_violation)
            << from << " -> " << to;
    }
}

} // namespace
} // namespace ssplane::tempo
