// Shortest-latency routing over network snapshots.
//
// Every shortest-path query in the stack runs one Dijkstra core over a
// `route_graph`, the compressed-sparse-row (CSR) form of a snapshot's
// adjacency with one weight per adjacency slot. `shortest_path_search`
// keeps its distance, predecessor and heap buffers across runs, stops as
// soon as a caller-given target set is settled, and records the slot each
// node was reached through, so per-link engines (the traffic engine's flow
// assignment) map a path to link ids without scanning adjacency lists.
#ifndef SSPLANE_LSN_ROUTING_H
#define SSPLANE_LSN_ROUTING_H

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "lsn/topology.h"
#include "util/expects.h"

namespace ssplane::lsn {

/// Result of a route query.
struct route_result {
    bool reachable = false;
    double latency_s = 0.0; ///< One-way propagation latency.
    int hops = 0;           ///< Number of links on the path.
    std::vector<int> path;  ///< Node indices from source to destination.
};

/// A snapshot's directed adjacency in CSR form. Slot `first_slot[u] + j`
/// is `snapshot.adjacency[u][j]` — the (node, adjacency slot) order of
/// `snapshot_links::slot_link`. Weights start as link latencies; a caller
/// may overwrite them in place (a `+inf` weight never relaxes, so it takes
/// a slot out of service without renumbering the graph).
struct route_graph {
    std::vector<int> first_slot; ///< Size n_nodes() + 1.
    std::vector<int> to;         ///< Head node per slot.
    std::vector<double> weight;  ///< Per slot.

    int n_nodes() const { return static_cast<int>(first_slot.size()) - 1; }
};

/// Latency-weighted CSR of `snapshot`. An edge to a node outside the
/// snapshot is a `contract_violation`.
route_graph make_route_graph(const network_snapshot& snapshot);

/// Dijkstra over a `route_graph` — the one shortest-path core. Nodes pop
/// in (distance, node) order and an edge relaxes only on a strictly
/// shorter distance, so ties resolve the same way on every run. Buffers
/// are kept across runs: reuse one search for many sources.
class shortest_path_search {
public:
    /// One pass from `src`. Stops once every node of `targets` is settled;
    /// an empty `targets` settles every reachable node. Distances and
    /// predecessors of settled nodes are final; other nodes hold upper
    /// bounds (infinity = not reached).
    void run(const route_graph& graph, int src, std::span<const int> targets = {});

    /// Distance per node of the last run.
    const std::vector<double>& distances() const { return dist_; }
    double distance(int node) const { return dist_[index(node)]; }
    bool reachable(int node) const
    {
        return distance(node) != std::numeric_limits<double>::infinity();
    }
    /// Predecessor node; -1 at the source and at unreached nodes.
    int prev_node(int node) const { return prev_node_[index(node)]; }
    /// Slot of the edge `node` was reached through; -1 where `prev_node` is.
    int prev_slot(int node) const { return prev_slot_[index(node)]; }
    /// Node indices from the source to `node`; empty when unreachable.
    std::vector<int> path_to(int node) const;

private:
    std::size_t index(int node) const
    {
        expects(node >= 0 && static_cast<std::size_t>(node) < dist_.size(),
                "bad node index");
        return static_cast<std::size_t>(node);
    }

    std::vector<double> dist_;
    std::vector<int> prev_node_;
    std::vector<int> prev_slot_;
    std::vector<std::uint8_t> is_target_;
    std::vector<std::pair<double, int>> heap_; ///< (distance, node) min-heap.
};

/// Dijkstra shortest path by latency between two nodes of a snapshot.
route_result shortest_route(const network_snapshot& snapshot, int src_node, int dst_node);

/// Convenience: route between two ground stations by index.
route_result ground_route(const network_snapshot& snapshot, int ground_a, int ground_b);

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_ROUTING_H
