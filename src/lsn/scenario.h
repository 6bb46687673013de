// Scenario-sweep network survivability engine (paper §2.1, §5(2)/(3)).
//
// The survivability half of the paper asks how an LSN behaves as satellites
// fail. This module provides the machinery to answer it at scale:
//
//   * `snapshot_builder` hoists per-satellite propagator construction and
//     ground-site geometry out of the per-step path and sweeps whole time
//     grids through `j2_propagator::states_at_offsets` (one GMST evaluation
//     per step, batched element advances per satellite);
//   * `failure_scenario`/`sample_failures` inject satellite loss: uniform
//     random loss, whole-plane attack, and radiation-driven Poisson failures
//     wired to the `failures.h` annual-rate model via per-plane fluence;
//   * `sweep_steps` is the one per-step loop every sweep engine shares:
//     input checks, then a per-step kernel over the process thread pool
//     (`util/parallel`) into per-step result slots, so any
//     `SSPLANE_THREADS` value reproduces identical metrics;
//   * `run_scenario_sweep_timeline` runs the snapshot + routing kernel on it
//     and reduces to robustness metrics: giant-component fraction, the
//     all-pairs ground-station reachability/latency matrix, and pooled
//     latency statistics comparable against an unfailed baseline.
#ifndef SSPLANE_LSN_SCENARIO_H
#define SSPLANE_LSN_SCENARIO_H

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "astro/propagator.h"
#include "lsn/timeline.h"
#include "lsn/topology.h"
#include "util/parallel.h"

namespace ssplane::lsn {

/// Reusable snapshot factory. Propagators, ground geodetics and ground ECEF
/// sites are derived once at construction; each time slice then costs one
/// batched element advance per satellite plus the geometry tests. The
/// topology must outlive the builder (it is referenced, not copied).
class snapshot_builder {
public:
    snapshot_builder(const lsn_topology& topology,
                     std::vector<ground_station> stations,
                     const astro::instant& epoch,
                     double min_elevation_rad,
                     double max_isl_range_m = 6.0e6);

    int n_satellites() const noexcept { return static_cast<int>(propagators_.size()); }
    int n_ground() const noexcept { return static_cast<int>(stations_.size()); }
    const astro::instant& epoch() const noexcept { return epoch_; }
    const lsn_topology& topology() const noexcept { return *topology_; }
    const std::vector<ground_station>& stations() const noexcept { return stations_; }

    /// Graph at `epoch + offset_s`. `failed` (when non-empty; size
    /// n_satellites, nonzero = failed) keeps the satellite's node but gives
    /// it no edges: the slot is dead, the constellation geometry unchanged.
    network_snapshot snapshot(double offset_s,
                              std::span<const std::uint8_t> failed = {}) const;

    /// Satellite ECEF positions for a whole time grid in one batched
    /// propagation sweep: result[step][satellite]. Parallelized over
    /// satellites; identical for any thread count.
    std::vector<std::vector<vec3>> positions_at_offsets(
        std::span<const double> offsets_s) const;

    /// Graph assembled from one step of `positions_at_offsets` output — the
    /// per-step path of the sweep engine. The mask is a span so timeline
    /// sweeps can hand each step its row without copying.
    network_snapshot snapshot_from_positions(
        const std::vector<vec3>& sat_positions_ecef,
        std::span<const std::uint8_t> failed = {}) const;

private:
    const lsn_topology* topology_;
    std::vector<ground_station> stations_;
    astro::instant epoch_;
    double min_elevation_rad_;
    double max_isl_range_m_;
    std::vector<astro::j2_propagator> propagators_;
    std::vector<vec3> ground_ecef_;
};

/// How satellites are removed from the network. The first four modes draw
/// one static mask (`sample_failures`); the last three evolve a per-step
/// `failure_timeline` and cannot be collapsed to a single mask.
enum class failure_mode {
    none,              ///< Unfailed baseline.
    random_loss,       ///< `loss_fraction` of satellites, drawn uniformly.
    plane_attack,      ///< `planes_attacked` whole planes, drawn uniformly.
    radiation_poisson, ///< Per-satellite Poisson failures from plane fluence.
    kessler_cascade,   ///< Debris cascade: losses raise neighbor-plane hazard.
    solar_storm,       ///< Storm epoch modulating per-plane fluence mid-sweep.
    greedy_adversary,  ///< Budgeted attacker maximizing delivered-traffic damage.
};

/// True for the modes that evolve a per-step timeline — these must go
/// through `sample_failure_timeline` (or, for `greedy_adversary`, the
/// traffic oracle in `traffic::generate_adversary_timeline`); asking
/// `sample_failures` for a one-shot mask is a contract violation.
bool is_timeline_mode(failure_mode mode) noexcept;

/// One failure scenario. Fields are read per `mode`; `seed` makes every
/// draw reproducible.
struct failure_scenario {
    failure_mode mode = failure_mode::none;
    double loss_fraction = 0.0; ///< random_loss: fraction of satellites in [0, 1].
    int planes_attacked = 0;    ///< plane_attack: whole planes removed.
    /// radiation_poisson / solar_storm: daily electron fluence per plane
    /// index [#/cm^2/MeV], fed through `annual_failure_rate` (the storm
    /// multiplies it inside the storm window).
    std::vector<double> plane_daily_fluence;
    double horizon_days = 365.25; ///< radiation_poisson: exposure window.
    // DETLINT-ALLOW(validate-coverage): every 64-bit seed is valid.
    std::uint64_t seed = 0;

    // --- kessler_cascade ----------------------------------------------
    /// Satellites destroyed by the triggering event at step 0.
    int cascade_initial_hits = 1;
    /// Ambient daily collision hazard per live satellite, debris aside.
    double cascade_base_daily_hazard = 0.0;
    /// Extra daily hazard per unit of debris in a satellite's plane. Each
    /// loss deposits 1 unit in its own plane and 0.5 in each adjacent
    /// (wrapping) plane.
    double cascade_escalation = 0.05;
    /// Debris decay time constant [s]: deposited debris decays by
    /// exp(-dt / cooldown) per step — the deorbit/avoidance relief valve.
    double cascade_cooldown_s = 21600.0;

    // --- solar_storm ----------------------------------------------------
    double storm_start_s = 0.0;        ///< Storm onset, offset from epoch.
    double storm_duration_s = 21600.0; ///< Raised-cosine storm window width.
    /// Peak fluence multiplier at the window center, further scaled by
    /// `radiation::solar_activity` at that instant (quiet sun damps it).
    double storm_fluence_multiplier = 10.0;

    // --- greedy_adversary -------------------------------------------------
    int adversary_budget = 0;             ///< Whole planes the attacker kills.
    int adversary_strike_interval_steps = 1; ///< Steps between strikes.
    int adversary_first_strike_step = 0;     ///< Step of the first strike.
    /// Evaluate candidate strikes on every `stride`-th sweep step — the
    /// attacker's planning grid. 1 = the full grid.
    int adversary_eval_stride = 1;
};

/// Reject out-of-range scenario knobs with a clear `contract_violation`:
/// `loss_fraction` outside [0, 1], negative `planes_attacked`, a
/// non-positive or non-finite `horizon_days` or negative fluence entries
/// for `radiation_poisson`. Only the fields of the scenario's own `mode`
/// are judged — mirrors `traffic::validate(capacity_options)`.
void validate(const failure_scenario& scenario);

/// Additionally checks the topology-dependent constraints: `planes_attacked`
/// cannot exceed the plane count and `plane_daily_fluence` must have exactly
/// one entry per plane. Called by `sample_failures` and the campaign runner.
void validate(const failure_scenario& scenario, const lsn_topology& topology);

/// Number of orbital planes of a topology (max plane index + 1).
int plane_count(const lsn_topology& topology);

/// Draw the failed-satellite mask for a scenario (size n_satellites,
/// 1 = failed). Deterministic in `scenario.seed`. Validates the scenario
/// against the topology first. Timeline modes (`is_timeline_mode`) are a
/// contract violation — they have no single static mask.
std::vector<std::uint8_t> sample_failures(const lsn_topology& topology,
                                          const failure_scenario& scenario);

/// Evolve the scenario's per-step failure timeline over the sweep grid.
/// One-shot modes wrap their `sample_failures` mask (bit-identical draw);
/// `kessler_cascade` and `solar_storm` evolve step-by-step with
/// deterministic per-step sub-streams (`rng::split(seed, purpose, step)`),
/// so the timeline is reproducible for any thread count and adding steps
/// never perturbs earlier rows. `greedy_adversary` is a contract
/// violation here — it needs the delivered-traffic oracle, which lives in
/// `traffic::generate_adversary_timeline`.
failure_timeline sample_failure_timeline(const lsn_topology& topology,
                                         const failure_scenario& scenario,
                                         std::span<const double> offsets_s,
                                         const astro::instant& epoch);

/// Fraction of *all* satellites inside the largest ISL-connected component
/// (ground nodes and ground links excluded). Satellites flagged in `failed`
/// never join a component, so the fraction reflects both fragmentation and
/// raw loss.
double giant_component_fraction(const network_snapshot& snapshot,
                                std::span<const std::uint8_t> failed = {});

/// Time grid and geometry thresholds of a sweep.
struct scenario_sweep_options {
    double duration_s = 86400.0;
    double step_s = 300.0;
    double min_elevation_rad = 0.5235987755982988; ///< 30°.
    double max_isl_range_m = 6.0e6;
};

/// Largest sweep grid, in offsets: `duration_s / step_s` above this is a
/// `contract_violation`, so a tiny step fails fast instead of asking for an
/// unbounded grid (a day at one second is 86 400 offsets).
constexpr double max_sweep_offsets = 1.0e7;

/// Reject a sweep grid that cannot be swept, with a clear
/// `contract_violation`: a non-finite `duration_s`, a non-finite or
/// non-positive `step_s`, more than `max_sweep_offsets` offsets, a
/// `min_elevation_rad` that is not finite or lies outside [-pi/2, pi/2], or
/// a non-finite or non-positive `max_isl_range_m`. Called by every entry
/// point that takes these options.
void validate(const scenario_sweep_options& options);

/// The sweep time grid: offsets 0, step_s, 2*step_s, ... < duration_s —
/// shared by every time-stepped sweep so their grids can never drift apart.
/// A non-positive duration yields an empty grid (sweeps report zeroed
/// stats); a non-finite duration, a non-finite or non-positive step or a
/// grid of more than `max_sweep_offsets` offsets is a contract violation,
/// raised before anything is allocated.
std::vector<double> sweep_offsets(double duration_s, double step_s);

/// Scalar robustness metrics for one scenario over the sweep window.
struct scenario_metrics {
    int n_failed = 0;                      ///< Satellites removed by the scenario.
    double giant_component_fraction = 0.0; ///< Mean over steps.
    double pair_reachable_fraction = 0.0;  ///< Mean over steps and station pairs.
    double mean_latency_ms = 0.0;          ///< Over reachable (pair, step) samples.
    double p95_latency_ms = 0.0;           ///< Over reachable (pair, step) samples.
};

/// Full sweep output: scalar metrics, per-step degradation traces and the
/// all-pairs ground-station matrices (row-major n_stations x n_stations,
/// symmetric, zero diagonal).
struct scenario_sweep_result {
    scenario_metrics metrics;
    int n_stations = 0;
    int n_steps = 0;
    /// Per-step degradation traces — flat under a static mask, the
    /// trajectory of interest under a timeline (time-to-partition,
    /// recovery headroom are reductions over these).
    std::vector<int> step_n_failed;
    std::vector<double> step_giant_fraction;
    std::vector<double> step_pair_reachable_fraction;
    std::vector<double> pair_reachable_fraction; ///< Fraction of steps routed.
    std::vector<double> pair_mean_latency_ms;    ///< Over that pair's reachable steps.

    double reachable(int a, int b) const
    {
        return pair_reachable_fraction[static_cast<std::size_t>(a * n_stations + b)];
    }
    double mean_latency_ms(int a, int b) const
    {
        return pair_mean_latency_ms[static_cast<std::size_t>(a * n_stations + b)];
    }
};

/// Reject sweep inputs that do not fit together, with a clear
/// `contract_violation`: `positions` must hold one row per offset, the
/// timeline must be well formed (`validate`) and, unless it has no rows,
/// carry the builder's satellite count.
void check_sweep_inputs(const snapshot_builder& builder,
                        std::span<const double> offsets_s,
                        const std::vector<std::vector<vec3>>& positions,
                        const failure_timeline& timeline);

/// The per-step loop of every sweep engine. Runs `check_sweep_inputs`, then
/// `kernel(i, timeline.step(i))` for every step `i` over the default
/// `parallel_for` and returns the kernel results as per-step slots in step
/// order. Each step writes only its own slot, so an engine's serial reduce
/// over them is bit-identical for any `SSPLANE_THREADS` value.
template <class Kernel>
auto sweep_steps(const snapshot_builder& builder, std::span<const double> offsets_s,
                 const std::vector<std::vector<vec3>>& positions,
                 const failure_timeline& timeline, Kernel&& kernel)
{
    check_sweep_inputs(builder, offsets_s, positions, timeline);
    using slot = std::invoke_result_t<Kernel&, std::size_t,
                                      std::span<const std::uint8_t>>;
    return parallel_map<slot>(offsets_s.size(), [&](std::size_t i) {
        return kernel(i, timeline.step(static_cast<int>(i)));
    });
}

/// Sweep one failure timeline over the time grid of a prebuilt builder and
/// its `positions_at_offsets(offsets_s)` output: each step `i` builds its
/// snapshot under `timeline.step(i)`, routes all station pairs, and the
/// steps reduce to the metrics above. A static mask is the one-row
/// `failure_timeline::from_static_mask(mask)`; `sample_failure_timeline`
/// draws either shape from a scenario. Bit-identical for any
/// `SSPLANE_THREADS` value.
scenario_sweep_result run_scenario_sweep_timeline(
    const snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const failure_timeline& timeline);

/// p95 latency inflation of `scenario` relative to `baseline` (1 = no
/// inflation). Returns 0 when either p95 is undefined because no pair was
/// ever reachable.
double p95_latency_inflation(const scenario_sweep_result& baseline,
                             const scenario_sweep_result& scenario);

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_SCENARIO_H
