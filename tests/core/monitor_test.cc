/**
 * @file
 * Tests for the client-side performance monitor.
 */

#include "core/monitor.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hh"
#include "util/stats.hh"

namespace {

using pliant::core::IntervalReport;
using pliant::core::PerformanceMonitor;

TEST(MonitorTest, EmptyIntervalReportsZero)
{
    PerformanceMonitor m;
    const IntervalReport r = m.closeInterval();
    EXPECT_EQ(r.samples, 0u);
    EXPECT_EQ(r.p99Us, 0.0);
}

TEST(MonitorTest, KnownDistributionP99)
{
    PerformanceMonitor m(8192, 1);
    // 1..1000 microseconds uniformly.
    for (int i = 1; i <= 1000; ++i)
        m.observe(static_cast<double>(i));
    const IntervalReport r = m.closeInterval();
    EXPECT_EQ(r.samples, 1000u);
    EXPECT_NEAR(r.p99Us, 990.0, 2.0);
}

TEST(MonitorTest, IntervalResetsWindow)
{
    PerformanceMonitor m;
    m.observe(100.0);
    m.closeInterval();
    const IntervalReport r = m.closeInterval();
    EXPECT_EQ(r.samples, 0u);
}

TEST(MonitorTest, AdaptiveSamplingBoundsMemory)
{
    PerformanceMonitor m(256, 2);
    for (int i = 0; i < 100000; ++i)
        m.observe(static_cast<double>(i % 1000));
    EXPECT_EQ(m.windowSize(), 256u);
    EXPECT_EQ(m.offered(), 100000u);
}

TEST(MonitorTest, SubsampledP99StillAccurate)
{
    PerformanceMonitor m(2048, 3);
    pliant::util::Rng rng(5);
    for (int i = 0; i < 200000; ++i)
        m.observe(rng.lognormalMeanCv(100.0, 0.8));
    const IntervalReport r = m.closeInterval();
    // Lognormal(mean 100, cv 0.8): p99 ~ 380. Allow generous noise
    // from the 2k-sample reservoir.
    EXPECT_NEAR(r.p99Us, 380.0, 80.0);
}

TEST(MonitorTest, IntervalTailEqualsSortedWindowBitwise)
{
    // util::Reservoir runs the monitor's replacement rule on the
    // same Xoshiro stream, so it mirrors the monitor's window. The
    // selection-based close must report exactly the p99 that sorting
    // that window and interpolating would: under the budget, at it,
    // and after reservoir replacement.
    constexpr std::size_t kBudget = 4096;
    constexpr std::uint64_t kSeed = 21;
    pliant::util::SplitMix64 sm(0x3017u);
    PerformanceMonitor m(kBudget, kSeed);
    pliant::util::Rng mirror_rng(kSeed);
    for (std::size_t offered : {1u, 2u, 3u, 100u, 4095u, 4096u, 30000u}) {
        pliant::util::Reservoir<pliant::util::Rng> mirror(kBudget);
        for (std::size_t i = 0; i < offered; ++i) {
            // Latency-like values with ties: 1 us grid over a
            // heavy-tailed spread.
            const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
            const double latency = std::floor(100.0 * std::pow(1.0 - u, -0.7));
            m.observe(latency);
            mirror.add(latency, mirror_rng);
        }
        std::vector<double> sorted = mirror.data();
        std::sort(sorted.begin(), sorted.end());

        const IntervalReport r = m.closeInterval();
        ASSERT_EQ(r.samples, std::min(offered, kBudget));
        EXPECT_EQ(r.p99Us, pliant::util::sortedPercentile(sorted, 99.0))
            << "offered " << offered;
    }
}

TEST(MonitorTest, LongRunP99SurvivesIntervals)
{
    PerformanceMonitor m(512, 4);
    for (int interval = 0; interval < 20; ++interval) {
        for (int i = 1; i <= 1000; ++i)
            m.observe(static_cast<double>(i));
        m.closeInterval();
    }
    EXPECT_NEAR(m.longRunP99(), 990.0, 25.0);
}

TEST(MonitorTest, DeterministicForSeed)
{
    PerformanceMonitor a(128, 9), b(128, 9);
    for (int i = 0; i < 10000; ++i) {
        a.observe(static_cast<double>(i % 777));
        b.observe(static_cast<double>(i % 777));
    }
    EXPECT_DOUBLE_EQ(a.closeInterval().p99Us, b.closeInterval().p99Us);
}

} // namespace
