#include "obs/metrics.h"

#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ssplane::obs {
namespace {

TEST(Metrics, CounterAccumulatesAndIsAddressStable)
{
    registry::instance().reset();
    counter& c = registry::instance().get_counter("test.metrics.counter");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // A second lookup resolves to the same object.
    EXPECT_EQ(&registry::instance().get_counter("test.metrics.counter"), &c);
    EXPECT_TRUE(c.deterministic());
}

TEST(Metrics, DeterministicFlagIsFixedByFirstRegistration)
{
    registry::instance().reset();
    counter& c = registry::instance().get_counter("test.metrics.sched", false);
    EXPECT_FALSE(c.deterministic());
    // Later lookups cannot flip the classification.
    EXPECT_FALSE(
        registry::instance().get_counter("test.metrics.sched", true).deterministic());
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations)
{
    registry::instance().reset();
    counter& c = registry::instance().get_counter("test.metrics.reset");
    c.add(5);
    registry::instance().reset();
    // Cached references stay valid and read zero.
    EXPECT_EQ(c.value(), 0u);
    bool found = false;
    for (const auto& s : registry::instance().snapshot())
        if (s.name == "test.metrics.reset") found = true;
    EXPECT_TRUE(found);
}

TEST(Metrics, SnapshotIsSortedByName)
{
    registry::instance().reset();
    registry::instance().get_counter("test.snapshot.b").add(2);
    registry::instance().get_counter("test.snapshot.a").add(1);
    const auto samples = registry::instance().snapshot();
    ASSERT_GE(samples.size(), 2u);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_LT(samples[i - 1].name, samples[i].name);
    const auto value_of = [&](const std::string& name) -> double {
        for (const auto& s : samples)
            if (s.name == name) return s.value;
        ADD_FAILURE() << "missing sample " << name;
        return -1.0;
    };
    EXPECT_EQ(value_of("test.snapshot.a"), 1.0);
    EXPECT_EQ(value_of("test.snapshot.b"), 2.0);
}

TEST(Metrics, DeterministicSnapshotExcludesSchedulerMetrics)
{
    registry::instance().reset();
    registry::instance().get_counter("test.det.work").add(1);
    registry::instance().get_counter("test.det.sched", false).add(1);
    for (const auto& s : deterministic_snapshot()) {
        EXPECT_TRUE(s.deterministic);
        EXPECT_NE(s.name, "test.det.sched");
    }
}

TEST(Metrics, WriteMetricsCsvEmitsHeaderAndSortedRows)
{
    registry::instance().reset();
    registry::instance().get_counter("test.csv.hits").add(3);
    registry::instance().get_counter("test.csv.sched", false).add(7);
    std::ostringstream out;
    write_metrics_csv(out);
    const std::string csv = out.str();
    EXPECT_EQ(csv.rfind("metric,value,deterministic\n", 0), 0u);
    EXPECT_NE(csv.find("test.csv.hits,3,1\n"), std::string::npos);
    EXPECT_NE(csv.find("test.csv.sched,7,0\n"), std::string::npos);
}

TEST(Metrics, ConcurrentIncrementsLoseNothing)
{
    // TSan stress leg: hammer one counter from many threads while a reader
    // thread snapshots, then check the total.
    registry::instance().reset();
    counter& c = registry::instance().get_counter("test.stress.counter");
    constexpr int n_threads = 8;
    constexpr int n_increments = 20000;
    std::vector<std::thread> threads;
    threads.reserve(n_threads + 1);
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < n_increments; ++i) c.add();
        });
    threads.emplace_back([&] {
        for (int i = 0; i < 50; ++i) (void)registry::instance().snapshot();
    });
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(n_threads) * n_increments);
}

TEST(Metrics, CountMacrosResolveOnceAndAccumulate)
{
    registry::instance().reset();
    for (int i = 0; i < 3; ++i) OBS_COUNT("test.macro.count");
    OBS_COUNT_N("test.macro.count", 4);
    OBS_COUNT_SCHED("test.macro.sched");
    EXPECT_EQ(registry::instance().get_counter("test.macro.count").value(), 7u);
    EXPECT_FALSE(
        registry::instance().get_counter("test.macro.sched").deterministic());
}

} // namespace
} // namespace ssplane::obs
