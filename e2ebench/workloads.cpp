#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "constellation/sun_sync.h"
#include "core/design_problem.h"
#include "core/evaluator.h"
#include "core/greedy_cover.h"
#include "core/walker_baseline.h"
#include "demand/demand_model.h"
#include "demand/population.h"
#include "exp/campaign.h"
#include "exp/evaluation_context.h"
#include "lsn/scenario.h"
#include "lsn/topology.h"
#include "radiation/fluence.h"
#include "radiation/solar_cycle.h"
#include "serve/beam_assignment.h"
#include "spectral/percolation.h"
#include "traffic/flow_assignment.h"
#include "traffic/traffic_matrix.h"
#include "util/angles.h"

namespace e2ebench {

using namespace ssplane;

int tail_percentile(std::size_t n_samples)
{
    if (n_samples <= 10) return 0;
    const double n = static_cast<double>(n_samples);
    return static_cast<int>(std::floor(100.0 * (n - 10.0) / n));
}

namespace {

// --- shared pieces -----------------------------------------------------------

/// p-th percentile (0..100) of `samples` by the nearest-rank rule.
double percentile(std::vector<double> samples, double p)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return samples[rank - 1];
}

/// Fills `<prefix>.p50` and its tail partner `<prefix>.p<NN>` in ms.
void put_percentiles(metric_map& m, const std::string& prefix,
                     const std::vector<double>& seconds)
{
    std::vector<double> ms;
    for (const double s : seconds) ms.push_back(s * 1e3);
    m[prefix + ".p50"] = percentile(ms, 50.0);
    const int tail = tail_percentile(ms.size());
    m[prefix + ".p" + std::to_string(tail)] = percentile(ms, tail);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The B=10 SS constellation of `network_day`: models, design, topology.
struct constellation_state {
    std::optional<demand::population_model> population;
    std::optional<demand::demand_model> demand;
    core::ss_design_result design;
    std::vector<constellation::ss_plane> planes;
    lsn::lsn_topology topology;
    std::vector<lsn::ground_station> stations;
    astro::instant epoch = astro::instant::from_calendar(2026, 6, 1, 0);

    void build(span_trace& trace)
    {
        {
            span_trace::scope s(trace, "demand.model_build");
            demand.reset();
            population.emplace();
            demand.emplace(*population);
        }
        {
            span_trace::scope s(trace, "core.greedy_cover");
            design = core::greedy_ss_cover(core::make_design_problem(*demand, 10.0));
        }
        span_trace::scope s(trace, "lsn.topology_build");
        planes.clear();
        for (const auto& p : design.planes)
            planes.push_back({p.altitude_m, p.ltan_h, p.n_sats, 0.0});
        topology = lsn::build_ss_topology(planes, epoch);
        stations = traffic::stations_from_cities(12);
    }
};

/// The Kessler cascade of `network_day`: two initial hits, 0.3/day ambient
/// hazard, escalating with debris that decays over six hours.
lsn::failure_scenario kessler_cascade(std::uint64_t seed)
{
    lsn::failure_scenario s;
    s.mode = lsn::failure_mode::kessler_cascade;
    s.cascade_initial_hits = 2;
    s.cascade_base_daily_hazard = 0.3;
    s.cascade_escalation = 0.05;
    s.cascade_cooldown_s = 6.0 * 3600.0;
    s.seed = seed;
    return s;
}

/// The (row, step) pair of probe sample `k`: `n` samples spread evenly
/// over all rows x steps, row-major.
std::pair<int, int> probe_pair(int k, int n, int n_rows, int n_steps)
{
    const long pairs = static_cast<long>(n_rows) * n_steps;
    const long index = static_cast<long>(k) * pairs / n % pairs;
    return {static_cast<int>(index / n_steps), static_cast<int>(index % n_steps)};
}

// --- design --------------------------------------------------------------------

class design_workload final : public workload {
public:
    explicit design_workload(const workload_config& config)
    {
        multipliers_ = config.tiny ? std::vector<double>{10.0}
                                   : std::vector<double>{10.0, 50.0, 200.0, 1000.0};
    }

    int ops_per_rep() const override { return static_cast<int>(multipliers_.size()) + 1; }

    void setup(span_trace& trace) override
    {
        span_trace::scope s(trace, "demand.model_build");
        demand_.reset();
        population_.emplace();
        demand_.emplace(*population_);
        designer_.emplace(); // fresh sizing memo every repetition
    }

    void run(span_trace& trace) override
    {
        const radiation::radiation_environment env;
        const auto day = astro::instant::from_calendar(2014, 3, 15);
        // Dose integration at 60 s (fig10 uses 20 s) keeps one repetition
        // near 10 s; the headline fluence pair below stays at 20 s.
        core::radiation_eval_options rad;
        rad.step_s = 60.0;
        rad.max_sampled_planes = 24;
        results_.clear();
        for (const double b : multipliers_) {
            span_trace::scope op(trace, "design.multiplier");
            result r;
            std::optional<core::design_problem> problem;
            {
                span_trace::scope s(trace, "core.design_problem");
                problem.emplace(core::make_design_problem(*demand_, b));
            }
            {
                span_trace::scope s(trace, "core.greedy_cover");
                r.ss = core::greedy_ss_cover(*problem);
            }
            {
                span_trace::scope s(trace, "core.walker_design");
                r.wd = designer_->design(*problem);
            }
            {
                span_trace::scope s(trace, "core.ss_dose");
                r.ss_dose = core::ss_constellation_radiation(r.ss, env, day, rad);
            }
            {
                span_trace::scope s(trace, "core.wd_dose");
                r.wd_dose = core::wd_constellation_radiation(r.wd, env, day, rad);
            }
            results_.push_back(std::move(r));
        }
        span_trace::scope s(trace, "radiation.daily_fluence");
        e30_ = radiation::daily_fluence(env, 560.0e3, deg2rad(30.0), day, 0.0, 20.0);
        e_ss_ = radiation::daily_fluence(env, 560.0e3, deg2rad(97.604), day, 0.0, 20.0);
    }

    void collect(outputs& out) const override
    {
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const int op = static_cast<int>(i);
            const auto& r = results_[i];
            const std::string k = "B=" + std::to_string(static_cast<int>(multipliers_[i]));
            out.add_exact(op, k + "/ss_planes", static_cast<double>(r.ss.planes.size()), true);
            out.add_exact(op, k + "/ss_satellites", r.ss.total_satellites, true);
            out.add_exact(op, k + "/ss_satisfied", r.ss.satisfied ? 1 : 0, true);
            out.add_exact(op, k + "/wd_shells", static_cast<double>(r.wd.shells.size()), true);
            out.add_exact(op, k + "/wd_satellites", r.wd.total_satellites, true);
            out.add_exact(op, k + "/wd_satisfied", r.wd.satisfied ? 1 : 0, true);
            out.add_float(op, k + "/ss_electron", r.ss_dose.median_electron_fluence, true);
            out.add_float(op, k + "/ss_proton", r.ss_dose.median_proton_fluence, true);
            out.add_float(op, k + "/wd_electron", r.wd_dose.median_electron_fluence, true);
            out.add_float(op, k + "/wd_proton", r.wd_dose.median_proton_fluence, true);
            // Paper invariants (Fig. 9/10): SS needs fewer satellites and
            // takes less electron dose than the Walker baseline.
            out.require(op, r.ss.satisfied && r.wd.satisfied, k + ": both designs satisfy demand");
            out.require(op, r.ss.total_satellites < r.wd.total_satellites,
                        k + ": SS satellites < WD satellites");
            out.require(op,
                        r.ss_dose.median_electron_fluence <
                            r.wd_dose.median_electron_fluence,
                        k + ": SS median electron dose < WD");
        }
        const int op = static_cast<int>(results_.size());
        out.add_float(op, "fluence_560km/incl30_electron", e30_.electrons_cm2_mev, true);
        out.add_float(op, "fluence_560km/ss_electron", e_ss_.electrons_cm2_mev, true);
        const double cut = 100.0 * (1.0 - e_ss_.electrons_cm2_mev / e30_.electrons_cm2_mev);
        out.add_float(op, "fluence_560km/reduction_percent", cut, true);
        // The fig10 headline band: SS vs 30° shells ~23% (18..28%).
        out.require(op, cut > 18.0 && cut < 28.0, "30 deg vs SS dose cut within 18..28%");
    }

    void layers(span_trace& trace, metric_map& m) override
    {
        // The traced run is a serial chain of these layer calls.
        double layer_sum = 0.0;
        for (const char* name : {"core.design_problem", "core.greedy_cover",
                                 "core.walker_design", "core.ss_dose", "core.wd_dose",
                                 "radiation.daily_fluence"})
            layer_sum += trace.total_s(name);
        m["trace.span_coverage"] = ratio(layer_sum, m["trace.run_s"]);
        m["core.walker_design_s"] = trace.total_s("core.walker_design");
        m["core.ss_dose_s"] = trace.total_s("core.ss_dose");
        m["core.wd_dose_s"] = trace.total_s("core.wd_dose");
        m["radiation.daily_fluence_s"] = trace.total_s("radiation.daily_fluence");
        double ss_planes = 0, ss_sats = 0, wd_shells = 0, wd_sats = 0;
        for (const auto& r : results_) {
            ss_planes += static_cast<double>(r.ss.planes.size());
            ss_sats += r.ss.total_satellites;
            wd_shells += static_cast<double>(r.wd.shells.size());
            wd_sats += r.wd.total_satellites;
        }
        m["core.ss_planes"] = ss_planes;
        m["core.ss_satellites"] = ss_sats;
        m["core.wd_shells"] = wd_shells;
        m["core.wd_satellites"] = wd_sats;
    }

private:
    struct result {
        core::ss_design_result ss;
        core::wd_baseline_result wd;
        core::constellation_radiation_summary ss_dose;
        core::constellation_radiation_summary wd_dose;
    };
    std::vector<double> multipliers_;
    std::optional<demand::population_model> population_;
    std::optional<demand::demand_model> demand_;
    std::optional<core::walker_baseline_designer> designer_;
    std::vector<result> results_;
    radiation::fluence_result e30_;
    radiation::fluence_result e_ss_;
};

// --- campaign and serving -------------------------------------------------------

/// Common shape of the two network workloads: a constellation, a plan, a
/// fresh evaluation context per repetition and one `run_campaign` call.
class network_workload : public workload {
public:
    network_workload(const workload_config& config, bool engines_seed_free)
        : config_(config), engines_seed_free_(engines_seed_free)
    {
    }

    void run(span_trace& trace) override
    {
        span_trace::scope s(trace, "exp.run_campaign");
        result_ = exp::run_campaign(plan_, *context_);
    }

    int ops_per_rep() const override
    {
        return static_cast<int>(plan_.scenarios.size() * plan_.engines.size());
    }

protected:
    /// Builds a fresh context on the current constellation.
    void build_context(span_trace& trace, const char* span, double step_s,
                       bool arm_adversary)
    {
        span_trace::scope s(trace, span);
        lsn::scenario_sweep_options grid;
        grid.duration_s = 86400.0;
        grid.step_s = step_s;
        context_.reset();
        context_.emplace(net_.topology, net_.stations, net_.epoch, grid);
        if (arm_adversary) context_->set_adversary_oracle(*net_.demand, traffic_opts_);
    }

    /// Timelines of every row on a fresh context, each under a span named
    /// after the layer that generates it.
    void generate_timelines(span_trace& trace)
    {
        for (const auto& spec : plan_.scenarios) {
            const bool adversary =
                spec.scenario.mode == lsn::failure_mode::greedy_adversary;
            span_trace::scope s(trace, adversary ? "traffic.adversary_timeline"
                                                 : "lsn.failure_timeline");
            context_->timeline(spec.scenario);
        }
    }

    /// Per-cell outputs every network workload records: the row's n_failed
    /// and every scalar column of the cell.
    void collect_cells(outputs& out, const std::vector<std::string>& exact_columns) const
    {
        const int n_engines = result_.n_engines;
        for (std::size_t r = 0; r < result_.rows.size(); ++r) {
            const auto& row = result_.rows[r];
            const int row_op = static_cast<int>(r) * n_engines;
            // Rows that draw no random numbers are checked on every seed
            // (never with the serving engine: its sessions come from the seed).
            const bool seed_free =
                engines_seed_free_ &&
                (row.scenario.mode == lsn::failure_mode::none ||
                 row.scenario.mode == lsn::failure_mode::greedy_adversary);
            out.add_exact(row_op, row.name + "/n_failed", row.n_failed, seed_free);
            out.require(row_op, row.n_failed >= 0 && row.n_failed <= context_->n_satellites(),
                        row.name + ": 0 <= n_failed <= satellites");
            for (const auto& column : result_.columns) {
                const int e = result_.engine_index(column.substr(0, column.find('.')));
                const int op = row_op + e;
                const double v = result_.value(static_cast<int>(r), column);
                const bool exact = std::find(exact_columns.begin(), exact_columns.end(),
                                             column) != exact_columns.end();
                if (exact) out.add_exact(op, row.name + "/" + column, v, seed_free);
                else out.add_float(op, row.name + "/" + column, v, seed_free);
                if (column.find("fraction") != std::string::npos)
                    out.require(op, v >= 0.0 && v <= 1.0 + 1e-12,
                                row.name + "/" + column + " in [0,1]");
            }
        }
    }

    /// Snapshot builds of the traced repetition per (row, step) of its
    /// campaign — the step-pipeline target is <= 1.
    void put_builds_per_row_step(metric_map& m) const
    {
        m["exp.snapshot.builds_per_row_step"] =
            ratio(m["lsn.snapshot.builds"],
                  static_cast<double>(result_.rows.size()) * context_->n_steps());
    }

    /// Drops the previous repetition's context, engines and results (and
    /// the references they hold into `net_`) before `net_` is rebuilt.
    void release()
    {
        result_ = {};
        context_.reset();
        plan_.engines.clear();
    }

    workload_config config_;
    bool engines_seed_free_;
    constellation_state net_;
    traffic::traffic_sweep_options traffic_opts_;
    exp::experiment_plan plan_;
    std::optional<exp::evaluation_context> context_;
    exp::campaign_result result_;
};

class campaign_workload final : public network_workload {
public:
    explicit campaign_workload(const workload_config& config)
        : network_workload(config, /*engines_seed_free=*/true)
    {
        traffic_opts_.matrix.total_demand_gbps = 2000.0;
        bulk_opts_.sat_buffer_gb = 25000.0;
        perc_opts_.compute_masking_thresholds = false;
        const std::uint64_t seed = config.seed;
        plan_.scenarios.push_back({"baseline", {}});
        lsn::failure_scenario s;
        s.mode = lsn::failure_mode::random_loss;
        s.seed = seed;
        s.loss_fraction = 0.1;
        plan_.scenarios.push_back({"random 10%", s});
        s.loss_fraction = 0.3;
        plan_.scenarios.push_back({"random 30%", s});
        s = {};
        s.mode = lsn::failure_mode::plane_attack;
        s.planes_attacked = 2;
        s.seed = seed;
        plan_.scenarios.push_back({"plane attack x2", s});
        plan_.scenarios.push_back({"kessler cascade", kessler_cascade(seed)});
        s = {};
        s.mode = lsn::failure_mode::greedy_adversary;
        s.adversary_budget = 2;
        s.adversary_strike_interval_steps = 4;
        s.adversary_eval_stride = 4;
        plan_.scenarios.push_back({"greedy adversary", s});
    }

    void setup(span_trace& trace) override
    {
        release();
        net_.build(trace);
        const int n_gw = static_cast<int>(net_.stations.size());
        std::vector<tempo::bulk_transfer_request> requests;
        for (int g = 0; g < n_gw; ++g)
            requests.push_back({g, (g + n_gw / 2) % n_gw, 500000.0, 0.0, 6.0 * 3600.0});
        requests_ = requests;
        plan_.engines = {std::make_shared<exp::survivability_engine>(),
                         std::make_shared<exp::traffic_engine>(*net_.demand, traffic_opts_),
                         std::make_shared<exp::percolation_engine>(perc_opts_),
                         std::make_shared<exp::bulk_engine>(requests_, bulk_opts_)};
        build_context(trace, "exp.context_build", step_s(), /*arm_adversary=*/true);
    }

    void collect(outputs& out) const override
    {
        collect_cells(out, {"survivability.n_failed"});
        const int surv = result_.engine_index("survivability");
        const int traffic = result_.engine_index("traffic");
        const int bulk = result_.engine_index("bulk");
        const int n_engines = result_.n_engines;
        for (std::size_t r = 0; r < result_.rows.size(); ++r) {
            const int row = static_cast<int>(r);
            const std::string& name = result_.rows[r].name;
            out.require(row * n_engines + traffic,
                        result_.value(row, "traffic.delivered_gbps_mean") <=
                            result_.value(row, "traffic.offered_gbps_mean") * (1 + 1e-12),
                        name + ": traffic delivered <= offered");
            out.require(row * n_engines + bulk,
                        result_.value(row, "bulk.delivered_gb") <=
                            result_.value(row, "bulk.offered_gb") * (1 + 1e-12),
                        name + ": bulk delivered <= offered");
            out.require(row * n_engines + surv,
                        result_.value(row, "survivability.n_failed") ==
                            result_.rows[r].n_failed,
                        name + ": survivability n_failed matches the row");
            out.require(row * n_engines + result_.engine_index("percolation"),
                        result_.value(row, "percolation.lambda2_min") >= -1e-9,
                        name + ": lambda2 >= 0");
        }
        out.require(0, result_.rows[0].n_failed == 0, "baseline loses nothing");
        // Plane-granular scenarios remove whole planes of satellites.
        const int per_plane = net_.design.sats_per_plane;
        for (std::size_t r = 0; r < result_.rows.size(); ++r) {
            const auto& row = result_.rows[r];
            const int op = static_cast<int>(r) * n_engines;
            if (row.scenario.mode == lsn::failure_mode::plane_attack)
                out.require(op, row.n_failed == row.scenario.planes_attacked * per_plane,
                            row.name + ": exactly the attacked planes fail");
            if (row.scenario.mode == lsn::failure_mode::greedy_adversary)
                out.require(op,
                            row.n_failed <= row.scenario.adversary_budget * per_plane &&
                                row.n_failed % per_plane == 0,
                            row.name + ": at most the budget, whole planes only");
        }
    }

    void layers(span_trace& trace, metric_map& m) override
    {
        {
            span_trace::scope decompose(trace, "decompose");
            build_context(trace, "decompose.context_build", step_s(),
                          /*arm_adversary=*/true);
            generate_timelines(trace);
            const auto& b = context_->builder();
            const auto offsets = context_->offsets();
            const auto& positions = context_->positions();
            for (const auto& spec : plan_.scenarios) {
                const auto& tl = context_->timeline(spec.scenario);
                {
                    span_trace::scope s(trace, "lsn.scenario_sweep");
                    lsn::run_scenario_sweep_timeline(b, offsets, positions, tl);
                }
                {
                    span_trace::scope s(trace, "traffic.sweep");
                    traffic::run_traffic_sweep_timeline(b, offsets, positions, tl,
                                                        *net_.demand, traffic_opts_);
                }
                {
                    span_trace::scope s(trace, "spectral.percolation_sweep");
                    spectral::run_percolation_sweep_timeline(b, offsets, positions, tl,
                                                             perc_opts_.metrics);
                }
                {
                    span_trace::scope s(trace, "tempo.bulk_sweep");
                    tempo::run_bulk_sweep_timeline(b, offsets, positions, tl, requests_,
                                                   bulk_opts_);
                }
            }
        }
        probe_kernels(trace);

        const double sweeps = trace.total_s("lsn.scenario_sweep") +
                              trace.total_s("traffic.sweep") +
                              trace.total_s("spectral.percolation_sweep") +
                              trace.total_s("tempo.bulk_sweep");
        const double timelines = trace.total_s("traffic.adversary_timeline") +
                                 trace.total_s("lsn.failure_timeline");
        m["lsn.scenario_sweep_s"] = trace.total_s("lsn.scenario_sweep");
        m["traffic.sweep_s"] = trace.total_s("traffic.sweep");
        m["traffic.adversary_timeline_s"] = trace.total_s("traffic.adversary_timeline");
        m["spectral.percolation_sweep_s"] = trace.total_s("spectral.percolation_sweep");
        m["tempo.bulk_sweep_s"] = trace.total_s("tempo.bulk_sweep");
        m["exp.sharing_s"] = sweeps + timelines - m["exp.run_campaign_s"];
        m["trace.span_coverage"] = ratio(sweeps + timelines, m["trace.run_s"]);
        double slowest = 0.0;
        for (const char* name : {"lsn.scenario_sweep", "traffic.sweep",
                                 "spectral.percolation_sweep", "tempo.bulk_sweep"})
            for (const double d : trace.durations_s(name)) slowest = std::max(slowest, d);
        m["exp.slowest_cell_s"] = slowest;
        put_builds_per_row_step(m);
        put_percentiles(m, "lsn.snapshot_build_ms", trace.durations_s("lsn.snapshot_build"));
        put_percentiles(m, "spectral.lambda2_ms", trace.durations_s("spectral.lambda2"));
        put_percentiles(m, "traffic.assign_ms", trace.durations_s("traffic.assign"));
    }

private:
    double step_s() const { return config_.tiny ? 21600.0 : 14400.0; }

    /// Kernel calls on sampled (row, step) snapshots of the last context:
    /// snapshot build, one percolation analysis (union-find and
    /// alive-subgraph λ₂, as the percolation cells run it, without the
    /// clustering pass) and one traffic assignment each.
    void probe_kernels(span_trace& trace)
    {
        span_trace::scope probes(trace, "probe");
        const auto& b = context_->builder();
        const auto offsets = context_->offsets();
        const int n_steps = context_->n_steps();
        const int n_rows = static_cast<int>(plan_.scenarios.size());
        spectral::percolation_options lambda2_opts = perc_opts_.metrics;
        lambda2_opts.compute_clustering = false;
        for (int k = 0; k < kProbeSamples; ++k) {
            const auto [row, step] = probe_pair(k, kProbeSamples, n_rows, n_steps);
            const auto& spec = plan_.scenarios[static_cast<std::size_t>(row)];
            const auto mask = context_->timeline(spec.scenario).step(step);
            lsn::network_snapshot snap;
            {
                span_trace::scope s(trace, "lsn.snapshot_build");
                snap = b.snapshot_from_positions(
                    context_->positions()[static_cast<std::size_t>(step)], mask);
            }
            {
                span_trace::scope s(trace, "spectral.lambda2");
                spectral::analyze_percolation(snap, mask, lambda2_opts);
            }
            const auto t = net_.epoch.plus_seconds(offsets[static_cast<std::size_t>(step)]);
            const auto matrix = traffic::build_traffic_matrix(*net_.demand, net_.stations,
                                                              t, traffic_opts_.matrix);
            span_trace::scope s(trace, "traffic.assign");
            traffic::assign_flows(snap, matrix, traffic_opts_.capacity);
        }
    }

    tempo::bulk_route_options bulk_opts_;
    exp::percolation_engine_options perc_opts_;
    std::vector<tempo::bulk_transfer_request> requests_;
};

class serving_workload final : public network_workload {
public:
    explicit serving_workload(const workload_config& config)
        : network_workload(config, /*engines_seed_free=*/false)
    {
        serving_opts_.n_sessions = config.tiny ? 20000 : 1000000;
        serving_opts_.seed = config.seed;
    }

    void setup(span_trace& trace) override
    {
        release();
        engine_.reset();
        net_.build(trace);
        std::vector<double> plane_fluence;
        {
            span_trace::scope s(trace, "radiation.plane_fluence");
            const radiation::radiation_environment env;
            for (const auto& p : net_.planes) {
                const double incl =
                    constellation::sun_synchronous_inclination_rad(p.altitude_m)
                        .value_or(deg2rad(97.5));
                plane_fluence.push_back(
                    radiation::daily_fluence(env, p.altitude_m, incl, net_.epoch, 0.0, 60.0)
                        .electrons_cm2_mev);
            }
        }
        plan_.scenarios.clear();
        plan_.scenarios.push_back({"baseline", {}});
        plan_.scenarios.push_back({"kessler cascade", kessler_cascade(config_.seed)});
        lsn::failure_scenario s;
        s.mode = lsn::failure_mode::solar_storm;
        s.plane_daily_fluence = plane_fluence;
        s.storm_start_s = 6.0 * 3600.0;
        s.storm_duration_s = 6.0 * 3600.0;
        // Same normalization as network_day: the 2026 epoch sits past the
        // modeled cycle envelope, so inject a cycle-max-equivalent spike.
        const double activity = std::max(
            radiation::solar_activity(net_.epoch.plus_seconds(9.0 * 3600.0)), 1.0e-9);
        s.storm_fluence_multiplier = 1.0 + 4000.0 / activity;
        s.seed = config_.seed;
        plan_.scenarios.push_back({"solar storm", s});

        engine_ = std::make_shared<exp::serving_engine>(*net_.population, serving_opts_);
        plan_.engines = {engine_};
        {
            span_trace::scope g(trace, "serve.sample_grid");
            engine_->grid();
        }
        build_context(trace, "exp.context_build", step_s(), /*arm_adversary=*/false);
    }

    void collect(outputs& out) const override
    {
        collect_cells(out, {"serving.sessions_homed", "serving.sessions_dropped_max",
                            "serving.sessions_degraded_max"});
        const double rate = serving_opts_.session_rate_mbps;
        for (std::size_t r = 0; r < result_.rows.size(); ++r) {
            const int row = static_cast<int>(r);
            const std::string& name = result_.rows[r].name;
            const auto& d = exp::serving_engine::detail(result_.cell(row, 0));
            out.require(row, d.metrics.sessions_homed == engine_->grid().total_sessions,
                        name + ": homed sessions = sampled sessions");
            out.require(row, d.metrics.delivered_gbps_mean <=
                                 d.metrics.offered_gbps_mean * (1 + 1e-12),
                        name + ": delivered <= offered");
            out.require(row,
                        d.metrics.p99_session_rate_mbps <= d.metrics.p50_session_rate_mbps &&
                            d.metrics.p50_session_rate_mbps <= rate * (1 + 1e-12),
                        name + ": p99 <= p50 <= session rate");
            bool dropped_ok = true;
            for (std::size_t i = 0; i < d.step_sessions_dropped.size(); ++i)
                dropped_ok = dropped_ok &&
                             d.step_sessions_dropped[i] + d.step_sessions_degraded[i] <=
                                 d.step_sessions_active[i];
            out.require(row, dropped_ok, name + ": dropped + degraded <= active every step");
        }
    }

    void layers(span_trace& trace, metric_map& m) override
    {
        double session_steps = 0.0, served = 0.0, active = 0.0;
        {
            span_trace::scope decompose(trace, "decompose");
            build_context(trace, "decompose.context_build", step_s(),
                          /*arm_adversary=*/false);
            generate_timelines(trace);
            for (const auto& spec : plan_.scenarios) {
                const auto& tl = context_->timeline(spec.scenario);
                serve::serving_sweep_result r;
                {
                    span_trace::scope s(trace, "serve.sweep");
                    r = serve::run_serving_sweep_timeline(
                        context_->builder(), context_->offsets(), context_->positions(), tl,
                        engine_->grid(), serving_opts_);
                }
                session_steps += static_cast<double>(r.metrics.sessions_homed) * r.n_steps;
                for (int i = 0; i < r.n_steps; ++i) {
                    const auto step = static_cast<std::size_t>(i);
                    served += r.step_served_fraction[step] * r.step_sessions_active[step];
                    active += r.step_sessions_active[step];
                }
            }
        }
        {
            span_trace::scope probes(trace, "probe");
            const int n_steps = context_->n_steps();
            const int n_rows = static_cast<int>(plan_.scenarios.size());
            for (int k = 0; k < kProbeSamples; ++k) {
                const auto [row, step] = probe_pair(k, kProbeSamples, n_rows, n_steps);
                const auto& spec = plan_.scenarios[static_cast<std::size_t>(row)];
                const auto t = net_.epoch.plus_seconds(
                    context_->offsets()[static_cast<std::size_t>(step)]);
                span_trace::scope s(trace, "serve.assign");
                serve::assign_beams(engine_->grid(),
                                    context_->positions()[static_cast<std::size_t>(step)],
                                    context_->timeline(spec.scenario).step(step), t,
                                    serving_opts_);
            }
        }
        m["serve.sweep_s"] = trace.total_s("serve.sweep");
        m["exp.slowest_cell_s"] = 0.0;
        for (const double d : trace.durations_s("serve.sweep"))
            m["exp.slowest_cell_s"] = std::max(m["exp.slowest_cell_s"], d);
        const double pieces =
            trace.total_s("serve.sweep") + trace.total_s("lsn.failure_timeline");
        m["exp.sharing_s"] = pieces - m["exp.run_campaign_s"];
        m["trace.span_coverage"] = ratio(pieces, m["trace.run_s"]);
        m["serve.ns_per_session_step"] = ratio(m["serve.sweep_s"] * 1e9, session_steps);
        m["serve.served_fraction"] = ratio(served, active);
        put_builds_per_row_step(m);
        put_percentiles(m, "serve.assign_ms", trace.durations_s("serve.assign"));
    }

private:
    double step_s() const { return config_.tiny ? 21600.0 : 3600.0; }

    serve::serving_options serving_opts_;
    std::shared_ptr<exp::serving_engine> engine_;
};

} // namespace

std::unique_ptr<workload> make_workload(const std::string& name,
                                        const workload_config& config)
{
    if (name == "design") return std::make_unique<design_workload>(config);
    if (name == "campaign") return std::make_unique<campaign_workload>(config);
    if (name == "serving") return std::make_unique<serving_workload>(config);
    return nullptr;
}

} // namespace e2ebench
