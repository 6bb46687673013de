#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace ssplane {
namespace {

/// Restore automatic sizing after each test.
class ParallelTest : public ::testing::Test {
protected:
    ~ParallelTest() override { set_thread_count(0); }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce)
{
    for (const unsigned threads : {1u, 4u}) {
        set_thread_count(threads);
        std::vector<std::atomic<int>> hits(1000);
        parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST_F(ParallelTest, ZeroIterationsIsANoop)
{
    set_thread_count(4);
    bool called = false;
    parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST_F(ParallelTest, ChunkBoundariesIndependentOfThreadCount)
{
    const std::size_t n = 10000;
    const std::size_t chunk = 256;
    const auto boundaries_with = [&](unsigned threads) {
        set_thread_count(threads);
        std::vector<std::atomic<std::size_t>> begin_of(n);
        parallel_for(
            n,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) begin_of[i].store(begin);
            },
            chunk);
        std::vector<std::size_t> out(n);
        for (std::size_t i = 0; i < n; ++i) out[i] = begin_of[i].load();
        return out;
    };
    EXPECT_EQ(boundaries_with(1), boundaries_with(5));
}

TEST_F(ParallelTest, MapPreservesIndexOrder)
{
    set_thread_count(4);
    const auto out =
        parallel_map<std::size_t>(500, [](std::size_t i) { return i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST_F(ParallelTest, NestedCallsRunSerially)
{
    set_thread_count(4);
    std::atomic<int> total{0};
    parallel_for(8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            parallel_for(10, [&](std::size_t b, std::size_t e) {
                total.fetch_add(static_cast<int>(e - b));
            });
        }
    });
    EXPECT_EQ(total.load(), 80);
}

TEST_F(ParallelTest, PropagatesBodyException)
{
    set_thread_count(4);
    EXPECT_THROW(parallel_for(100,
                              [](std::size_t begin, std::size_t) {
                                  if (begin == 0) throw std::runtime_error("boom");
                              },
                              10),
                 std::runtime_error);
}

TEST_F(ParallelTest, ThreadCountOverrideAndRestore)
{
    set_thread_count(3);
    EXPECT_EQ(thread_count(), 3u);
    set_thread_count(0);
    EXPECT_GE(thread_count(), 1u);
}

TEST_F(ParallelTest, PoolJoinIsItsOwnSpanNotTheCallersSelfTime)
{
    // A fan-out parent blocked on the pool: the join shows up as a
    // `pool.wait` span nested in the parent, so the parent's self time is
    // its own work, not the chunks' sleep.
    obs::trace_reset();
    obs::set_tracing_enabled(true);
    set_thread_count(2);
    {
        const obs::span fanout("test.fanout");
        parallel_for(
            4,
            [](std::size_t, std::size_t) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            },
            1);
    }
    obs::set_tracing_enabled(false);
    const auto spans = obs::trace_snapshot();
    const auto stats = obs::phase_stats();
    obs::trace_reset();

    const obs::trace_span* parent = nullptr;
    const obs::trace_span* wait = nullptr;
    for (const auto& s : spans) {
        if (s.name == "test.fanout") parent = &s;
        if (s.name == "pool.wait") wait = &s;
    }
    ASSERT_NE(parent, nullptr);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->tid, parent->tid);
    EXPECT_GE(wait->begin_ns, parent->begin_ns);
    EXPECT_LE(wait->end_ns, parent->end_ns);

    const auto stat = std::find_if(stats.begin(), stats.end(),
                                   [](const auto& p) { return p.name == "test.fanout"; });
    ASSERT_NE(stat, stats.end());
    // Two 10 ms rounds of chunks; the parent only submitted them.
    EXPECT_GE(stat->wall_ns, 15'000'000u);
    EXPECT_LT(stat->self_ns * 4, stat->wall_ns);
}

TEST_F(ParallelTest, EveryChunkSpanIsRecordedBeforeReturn)
{
    // Each chunk task's `pool.task` span closes before the task counts
    // itself done, so none can land after parallel_for returns.
    obs::trace_reset();
    obs::set_tracing_enabled(true);
    set_thread_count(4);
    const std::size_t n_chunks = 64;
    parallel_for(n_chunks, [](std::size_t, std::size_t) {}, 1);
    const auto spans = obs::trace_snapshot();
    obs::set_tracing_enabled(false);
    obs::trace_reset();

    const auto tasks = std::count_if(spans.begin(), spans.end(), [](const auto& s) {
        return s.name == "pool.task";
    });
    EXPECT_EQ(static_cast<std::size_t>(tasks), n_chunks);
}

} // namespace
} // namespace ssplane
