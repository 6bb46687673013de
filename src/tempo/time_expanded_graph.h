// Time-expanded graph over a sweep's network snapshots — the substrate of
// the store-and-forward bulk-transfer engine (ROADMAP "time-expanded
// routing"; paper §5 time-aware evaluation).
//
// Nodes are (satellite-or-ground, step) pairs over the scenario-sweep time
// grid. Arcs are of two kinds:
//
//   * transmission arcs — the live links of that step's snapshot (from
//     `lsn::snapshot_builder` under the step's failure-timeline mask), carrying
//     *volume*: an ISL or uplink of capacity C Gbps live for a step of
//     dwell D seconds moves up to C*D gigabits within that step. Both
//     directions of an undirected link share one capacity slot, exactly
//     like `traffic::link_load` shares load across directions: a step's
//     slots are its `lsn::number_links` links, the numbering the traffic
//     engine uses, so a pair listed twice is still one slot and an
//     asymmetric adjacency is a `contract_violation`.
//   * storage arcs — (node, step) -> (node, step+1). A satellite's storage
//     arc is gated by its onboard buffer (`sat_buffer_gb`); ground nodes
//     store for free (data waits at a gateway until the network can move
//     it), which is what makes delay-tolerant release-to-deadline routing
//     expressible at all.
//
// The layout is CSR (arc_begin/arcs) so the earliest-completion Dijkstra in
// `bulk_router` touches contiguous memory; capacity state lives in shared
// `slot` records so augmenting paths update residuals in O(path length).
#ifndef SSPLANE_TEMPO_TIME_EXPANDED_GRAPH_H
#define SSPLANE_TEMPO_TIME_EXPANDED_GRAPH_H

#include <cstdint>
#include <span>
#include <vector>

#include "lsn/scenario.h"
#include "traffic/flow_assignment.h"

namespace ssplane::tempo {

/// Knobs of the time-expanded graph and the bulk solver on top of it.
/// Link capacities (Gbps) are shared with the traffic engine's
/// `capacity_options`; the buffer and dwell knobs are new here.
struct bulk_route_options {
    traffic::capacity_options capacity{};
    /// Onboard store-and-forward buffer per satellite [Gb]. Gates every
    /// satellite storage arc; 0 disables satellite buffering entirely
    /// (ground gateways always store for free).
    double sat_buffer_gb = 64.0;
    /// Dwell of the final step [s]; 0 infers it from the offset grid
    /// (previous step's spacing). Must be positive for single-step grids.
    double last_step_s = 0.0;
};

/// Reject degenerate knobs (non-positive capacities/buffers that would
/// silently route nothing, `k_rounds < 1`, ...) with a clear
/// `contract_violation` instead of producing degenerate assignments.
void validate(const bulk_route_options& options);

/// Step dwells of an offset grid: consecutive spacing, with the final
/// step's dwell taken from `last_step_s` when positive, else from the
/// previous spacing (single-step grids therefore require `last_step_s`).
/// Shared by the time-expanded builder and the per-step baseline so both
/// contenders price capacity over identical intervals.
std::vector<double> step_dwells(std::span<const double> offsets_s,
                                double last_step_s = 0.0);

/// The time-expanded graph. Time-node ids are step-major:
/// `step * n_nodes() + node`, with snapshot node order (satellites first,
/// then ground).
struct time_expanded_graph {
    /// Shared capacity state of one (link, step) or one storage hop.
    struct slot {
        double capacity_gb = 0.0;
        double load_gb = 0.0;
        int step = 0;  ///< Step the capacity belongs to (storage: from-step).
        int a = 0;     ///< Node index (storage: the storing node, b == a).
        int b = 0;
        bool storage = false;
        bool uplink = false; ///< Transmission only: ground<->satellite link.

        double residual_gb() const { return capacity_gb - load_gb; }
    };

    /// One directed arc of the CSR adjacency. `slot < 0` means
    /// uncapacitated (ground storage).
    struct arc {
        int to = 0;              ///< Destination time-node id.
        int slot = -1;
        double traverse_s = 0.0; ///< Transmission: latency; storage: dwell.
    };

    int n_satellites = 0;
    int n_ground = 0;
    int n_steps = 0;
    bulk_route_options options;    ///< Knobs the graph was built with.
    std::vector<double> offsets_s; ///< Step start offsets from the epoch.
    std::vector<double> dwell_s;   ///< Step durations.
    std::vector<slot> slots;
    std::vector<std::int64_t> arc_begin; ///< CSR offsets, size n_time_nodes()+1.
    std::vector<arc> arcs;

    int n_nodes() const { return n_satellites + n_ground; }
    int n_time_nodes() const { return n_nodes() * n_steps; }
    int time_node(int node, int step) const { return step * n_nodes() + node; }
    int node_of(int tn) const { return tn % n_nodes(); }
    int step_of(int tn) const { return tn / n_nodes(); }
    /// End of a step's interval — the completion time of volume moved on
    /// that step's transmission arcs.
    double step_end_s(int step) const
    {
        return offsets_s[static_cast<std::size_t>(step)] +
               dwell_s[static_cast<std::size_t>(step)];
    }

    /// Zero every slot load so the graph can be re-routed from scratch
    /// (bench reuse).
    void reset_loads();

    /// Per-satellite storage high-water mark [Gb]: the largest buffered
    /// volume any step hands to the next. Loads only accumulate, so this is
    /// exact after routing.
    std::vector<double> satellite_buffer_high_water_gb() const;
};

/// Assemble the graph from already-materialized per-step snapshots (unit
/// tests hand-build these; the builder overload below materializes them).
/// Snapshots must share one node set; `offsets_s` must be strictly
/// increasing with one entry per snapshot. Step `i`'s storage arcs are
/// gated by `timeline.step(i)`: a satellite that dies mid-sweep keeps
/// buffering up to its failure step and loses the stored volume after (its
/// transmission links are expected to be absent from the snapshots
/// already). A static mask is the one-row
/// `lsn::failure_timeline::from_static_mask(mask)`; an empty timeline
/// gates nothing.
time_expanded_graph build_time_expanded_graph_timeline(
    std::span<const lsn::network_snapshot> snapshots,
    std::span<const double> offsets_s, const lsn::failure_timeline& timeline,
    const bulk_route_options& options = {});

/// Assemble the graph from a scenario-sweep builder and its batched
/// `positions_at_offsets(offsets_s)` output: step `i`'s snapshot is masked
/// by `timeline.step(i)` (links die with the satellite at its failure
/// step) and its storage arcs are gated the same way. Bit-identical for any
/// `SSPLANE_THREADS` value.
time_expanded_graph build_time_expanded_graph_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline,
    const bulk_route_options& options = {});

/// Materialize every step's snapshot from one `positions_at_offsets`
/// output, step `i` masked by `timeline.step(i)`, on the shared
/// `lsn::sweep_steps` loop — bit-identical for any `SSPLANE_THREADS` value.
/// Shared by the graph builder above and the per-step baseline sweep.
std::vector<lsn::network_snapshot> materialize_snapshots_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline);

} // namespace ssplane::tempo

#endif // SSPLANE_TEMPO_TIME_EXPANDED_GRAPH_H
