#include "obs/metrics.h"

#include <limits>
#include <ostream>

namespace ssplane::obs {

registry& registry::instance() noexcept
{
    // Leaked on purpose: pool workers (and other static-storage machinery
    // in higher layers) may still bump counters during their own shutdown,
    // and static destruction order across translation units is unspecified.
    static registry* const the_registry = new registry();
    return *the_registry;
}

counter& registry::get_counter(std::string_view name, bool deterministic)
{
    const std::lock_guard lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
    auto& slot = counters_[std::string(name)];
    slot.reset(new counter(deterministic));
    return *slot;
}

void registry::reset()
{
    const std::lock_guard lock(mutex_);
    for (auto& [name, c] : counters_)
        c->value_.store(0, std::memory_order_relaxed);
}

std::vector<metric_sample> registry::snapshot() const
{
    const std::lock_guard lock(mutex_);
    std::vector<metric_sample> samples;
    samples.reserve(counters_.size());
    // counters_ is a std::map, so the samples come out in name order.
    for (const auto& [name, c] : counters_)
        samples.push_back(
            {name, static_cast<double>(c->value()), c->deterministic()});
    return samples;
}

std::vector<metric_sample> deterministic_snapshot()
{
    auto samples = registry::instance().snapshot();
    std::erase_if(samples,
                  [](const metric_sample& s) { return !s.deterministic; });
    return samples;
}

void write_metrics_csv(std::ostream& out)
{
    const auto samples = registry::instance().snapshot();
    const auto precision = out.precision(std::numeric_limits<double>::max_digits10);
    out << "metric,value,deterministic\n";
    for (const auto& s : samples)
        out << s.name << ',' << s.value << ',' << (s.deterministic ? 1 : 0)
            << '\n';
    out.precision(precision);
}

} // namespace ssplane::obs
