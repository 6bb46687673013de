#include "exp/evaluation_context.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/adversary.h"
#include "util/expects.h"

namespace ssplane::exp {

cache_statistics operator-(const cache_statistics& a, const cache_statistics& b)
{
    return {a.timeline_hits - b.timeline_hits,
            a.timeline_misses - b.timeline_misses};
}

evaluation_context::evaluation_context(const lsn::lsn_topology& topology,
                                       std::vector<lsn::ground_station> stations,
                                       const astro::instant& epoch,
                                       const lsn::scenario_sweep_options& grid)
    : grid_(grid),
      builder_(topology, std::move(stations), epoch, grid.min_elevation_rad,
               grid.max_isl_range_m)
{
    // The batched propagation pass is the expensive part of construction;
    // run it in the body so the span covers it.
    OBS_SPAN("exp.context.build");
    OBS_COUNT("exp.context.builds");
    lsn::validate(grid);
    offsets_ = lsn::sweep_offsets(grid.duration_s, grid.step_s);
    positions_ = builder_.positions_at_offsets(offsets_);
}

evaluation_context::timeline_key evaluation_context::key_of(
    const lsn::failure_scenario& scenario)
{
    timeline_key key;
    key.mode = static_cast<int>(scenario.mode);
    switch (scenario.mode) {
    case lsn::failure_mode::none:
        // No randomness at all: every baseline shares one all-zero mask.
        break;
    case lsn::failure_mode::random_loss:
        key.seed = scenario.seed;
        key.knobs = {scenario.loss_fraction};
        break;
    case lsn::failure_mode::plane_attack:
        key.seed = scenario.seed;
        key.knobs = {static_cast<double>(scenario.planes_attacked)};
        break;
    case lsn::failure_mode::radiation_poisson:
        key.seed = scenario.seed;
        key.knobs = scenario.plane_daily_fluence;
        key.knobs.push_back(scenario.horizon_days);
        break;
    case lsn::failure_mode::kessler_cascade:
        key.seed = scenario.seed;
        key.knobs = {static_cast<double>(scenario.cascade_initial_hits),
                     scenario.cascade_base_daily_hazard, scenario.cascade_escalation,
                     scenario.cascade_cooldown_s};
        break;
    case lsn::failure_mode::solar_storm:
        key.seed = scenario.seed;
        key.knobs = scenario.plane_daily_fluence;
        key.knobs.push_back(scenario.storm_start_s);
        key.knobs.push_back(scenario.storm_duration_s);
        key.knobs.push_back(scenario.storm_fluence_multiplier);
        break;
    case lsn::failure_mode::greedy_adversary:
        // Deterministic — no seed. The oracle (demand + traffic knobs) is
        // per-context state, so it never has to participate in the key.
        key.knobs = {static_cast<double>(scenario.adversary_budget),
                     static_cast<double>(scenario.adversary_strike_interval_steps),
                     static_cast<double>(scenario.adversary_first_strike_step),
                     static_cast<double>(scenario.adversary_eval_stride)};
        break;
    }
    return key;
}

void evaluation_context::set_adversary_oracle(const demand::demand_model& demand,
                                              traffic::traffic_sweep_options options)
{
    // The used-flag and the oracle pointer share the cache mutex: arming
    // races against concurrent timeline() lookups otherwise.
    const std::lock_guard lock(mutex_);
    expects(!adversary_oracle_used_,
            "adversary oracle cannot be re-armed after a greedy_adversary "
            "timeline has been generated; it would disagree with the cache");
    adversary_demand_ = &demand;
    adversary_options_ = std::move(options);
}

const lsn::failure_timeline& evaluation_context::timeline(
    const lsn::failure_scenario& scenario) const
{
    // Reject invalid knobs before the cache lookup: a NaN knob would break
    // the map's ordering and could alias an existing valid entry.
    lsn::validate(scenario, topology());
    auto key = key_of(scenario);
    {
        const std::lock_guard lock(mutex_);
        const auto it = timelines_.find(key);
        if (it != timelines_.end()) {
            timeline_hits_.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("exp.timeline_cache.hit");
            return it->second;
        }
    }
    timeline_misses_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNT("exp.timeline_cache.miss");
    OBS_SPAN("exp.timeline_generate");
    // Generate outside the lock (the adversary oracle in particular runs
    // full traffic sweeps); generation is deterministic, so a racing
    // duplicate produces the identical timeline and the first insert wins.
    lsn::failure_timeline generated;
    if (scenario.mode == lsn::failure_mode::greedy_adversary) {
        // Snapshot the oracle under the lock; the flag write must also be
        // mutex-guarded so it cannot race a concurrent set_adversary_oracle.
        const demand::demand_model* demand = nullptr;
        traffic::traffic_sweep_options oracle_options;
        {
            const std::lock_guard lock(mutex_);
            expects(adversary_demand_ != nullptr,
                    "greedy_adversary scenarios need set_adversary_oracle("
                    "demand, options) on the evaluation context before the "
                    "first lookup");
            adversary_oracle_used_ = true;
            demand = adversary_demand_;
            oracle_options = adversary_options_;
        }
        generated = traffic::generate_adversary_timeline(
            builder_, offsets_, positions_, scenario, *demand, oracle_options);
    } else {
        generated = lsn::sample_failure_timeline(topology(), scenario, offsets_,
                                                 epoch());
    }
    const std::lock_guard lock(mutex_);
    return timelines_.emplace(std::move(key), std::move(generated)).first->second;
}

std::size_t evaluation_context::timeline_cache_size() const
{
    const std::lock_guard lock(mutex_);
    return timelines_.size();
}

cache_statistics evaluation_context::cache_stats() const noexcept
{
    return {timeline_hits_.load(std::memory_order_relaxed),
            timeline_misses_.load(std::memory_order_relaxed)};
}

} // namespace ssplane::exp
