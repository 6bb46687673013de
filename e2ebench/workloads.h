// The three workloads of the end-to-end benchmark.
//
//   design   — the paper's Fig. 9/10 pipeline: per bandwidth multiplier,
//              design problem -> greedy SS cover -> Walker baseline -> SS
//              and WD constellation dose; plus the 560 km 30° vs SS daily
//              fluence pair. Deterministic; the seed is ignored.
//   campaign — the B=10 SS constellation (12 city gateways, 24 h) judged by
//              the survivability, traffic, percolation and bulk engines in
//              one `exp::run_campaign` call over six failure scenarios,
//              the greedy adversary among them.
//   serving  — the same constellation serving 1M sampled sessions under a
//              baseline, a Kessler cascade and a solar storm.
//
// A workload is driven one repetition at a time: `setup` builds everything
// the timed call needs from scratch (models, design, topology, a fresh
// evaluation context, sampled sessions), `run` is the timed call, `collect`
// records its checked outputs. `layers` runs only in a traced process: it
// re-runs the timed work piece by piece (per-cell `*_timeline` sweeps,
// timeline generation) and times kernel calls on sampled snapshots, all
// under spans, and fills the per-layer metrics derived from them.
#ifndef SSPLANE_E2EBENCH_WORKLOADS_H
#define SSPLANE_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "checks.h"
#include "span_trace.h"

namespace e2ebench {

struct workload_config {
    std::uint64_t seed = 1;
    bool tiny = false; ///< Determinism-smoke size: B=10 only, few steps, 20k sessions.
};

using metric_map = std::map<std::string, double>;

/// Kernel calls timed per probe kind in a traced run; fixes the tail
/// percentile reported next to every `.p50`.
inline constexpr int kProbeSamples = 40;

class workload {
public:
    virtual ~workload() = default;
    /// Operations one repetition attempts (cells, or design+dose pairs).
    virtual int ops_per_rep() const = 0;
    virtual void setup(span_trace& trace) = 0;
    virtual void run(span_trace& trace) = 0;
    virtual void collect(outputs& out) const = 0;
    virtual void layers(span_trace& trace, metric_map& metrics) = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        const workload_config& config);

/// The highest whole percentile with at least ten samples beyond it.
int tail_percentile(std::size_t n_samples);

} // namespace e2ebench

#endif // SSPLANE_E2EBENCH_WORKLOADS_H
