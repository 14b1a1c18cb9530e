/**
 * @file
 * Tests for the simulation clock and periodic scheduler.
 */

#include "sim/clock.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace {

using namespace pliant::sim;

TEST(TimeTest, Conversions)
{
    EXPECT_EQ(fromSeconds(1.0), kSecond);
    EXPECT_EQ(fromMillis(1.0), kMillisecond);
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(toMillis(2 * kMillisecond), 2.0);
    EXPECT_EQ(fromSeconds(0.01), 10 * kMillisecond);
}

TEST(ClockTest, StartsAtZero)
{
    Clock c;
    EXPECT_EQ(c.now(), 0);
}

TEST(ClockTest, AdvancesByStep)
{
    Clock c(5 * kMillisecond);
    EXPECT_EQ(c.advance(), 5 * kMillisecond);
    EXPECT_EQ(c.advance(), 10 * kMillisecond);
    EXPECT_EQ(c.now(), 10 * kMillisecond);
}

TEST(ClockTest, RejectsNonPositiveStep)
{
    EXPECT_THROW(Clock(0), pliant::util::FatalError);
    EXPECT_THROW(Clock(-1), pliant::util::FatalError);
}

TEST(PeriodicSchedulerTest, FiresAtPeriodBoundaries)
{
    PeriodicScheduler sched;
    int fires = 0;
    sched.addPeriodic(kSecond, [&](Time) { ++fires; });
    sched.runDue(999 * kMillisecond);
    EXPECT_EQ(fires, 0);
    sched.runDue(kSecond);
    EXPECT_EQ(fires, 1);
    sched.runDue(kSecond); // same time again: no re-fire
    EXPECT_EQ(fires, 1);
    sched.runDue(3 * kSecond); // catches up on 2s and 3s
    EXPECT_EQ(fires, 3);
}

TEST(PeriodicSchedulerTest, FireAtZero)
{
    PeriodicScheduler sched;
    int fires = 0;
    sched.addPeriodic(kSecond, [&](Time) { ++fires; }, true);
    sched.runDue(0);
    EXPECT_EQ(fires, 1);
}

TEST(PeriodicSchedulerTest, PassesCurrentTime)
{
    PeriodicScheduler sched;
    Time seen = -1;
    sched.addPeriodic(kSecond, [&](Time t) { seen = t; });
    sched.runDue(2 * kSecond);
    EXPECT_EQ(seen, 2 * kSecond);
}

TEST(PeriodicSchedulerTest, MultipleTasksIndependentPeriods)
{
    PeriodicScheduler sched;
    int fast = 0, slow = 0;
    sched.addPeriodic(100 * kMillisecond, [&](Time) { ++fast; });
    sched.addPeriodic(kSecond, [&](Time) { ++slow; });
    for (Time t = 100 * kMillisecond; t <= kSecond;
         t += 100 * kMillisecond) {
        sched.runDue(t);
    }
    EXPECT_EQ(fast, 10);
    EXPECT_EQ(slow, 1);
    EXPECT_EQ(sched.taskCount(), 2u);
}

TEST(PeriodicSchedulerTest, RejectsNonPositivePeriod)
{
    PeriodicScheduler sched;
    EXPECT_THROW(sched.addPeriodic(0, [](Time) {}),
                 pliant::util::FatalError);
}

TEST(ClockSchedulerIntegrationTest, DecisionIntervalOverTicks)
{
    // A 1 s decision interval over 10 ms ticks fires exactly once per
    // hundred ticks — the colocation loop's exact pattern.
    Clock clock(10 * kMillisecond);
    PeriodicScheduler sched;
    int decisions = 0;
    sched.addPeriodic(kSecond, [&](Time) { ++decisions; });
    for (int tick = 0; tick < 1000; ++tick)
        sched.runDue(clock.advance());
    EXPECT_EQ(decisions, 10);
}

} // namespace
