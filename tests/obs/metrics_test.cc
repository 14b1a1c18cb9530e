/**
 * @file
 * obs::MetricsRegistry: update and snapshot semantics, freeze
 * semantics, snapshot merging, and the JSON/table exporters the
 * bench tooling parses.
 */

#include "obs/metrics.hh"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "util/histogram.hh"
#include "util/logging.hh"

namespace pliant {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterSumsEveryDelta)
{
    // 1000 updates of 1 + i % 7, plus one default (+1) add; every
    // counter sums independently of the others.
    MetricsRegistry reg;
    const MetricId hits = reg.counter("t.hits");
    const MetricId other = reg.counter("t.other");
    reg.freeze();
    std::uint64_t expected = 0;
    for (unsigned i = 0; i < 1000; ++i) {
        reg.add(hits, 1 + i % 7);
        expected += 1 + i % 7;
    }
    reg.add(hits);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("t.hits")->count, expected + 1);
    EXPECT_EQ(snap.find("t.other")->count, 0U);
    // A snapshot is a copy: later updates do not reach it.
    reg.add(other, 5);
    EXPECT_EQ(snap.find("t.other")->count, 0U);
    EXPECT_EQ(reg.snapshot().find("t.other")->count, 5U);
}

TEST(MetricsRegistryTest, HistogramSnapshotMatchesLogHistogram)
{
    // The snapshot carries exactly the buckets (under, regular,
    // over) of a util::LogHistogram fed the same values.
    MetricsRegistry reg;
    const MetricId id = reg.histogram("t.lat", 10.0, 1.25, 32);
    reg.freeze();
    util::LogHistogram ref(10.0, 1.25, 32);
    for (unsigned i = 0; i < 500; ++i) {
        reg.histAdd(id, 5.0 + 3.0 * i);
        ref.add(5.0 + 3.0 * i);
    }
    const MetricValue m = reg.snapshot().metrics[0];
    const std::vector<std::uint64_t> want(ref.buckets().begin(),
                                          ref.buckets().end());
    EXPECT_EQ(m.buckets, want);
    EXPECT_EQ(m.histCount(), 500U);
    EXPECT_EQ(m.histLo, 10.0);
    EXPECT_EQ(m.histBase, 1.25);
}

TEST(MetricsRegistryTest, SnapshotPreservesRegistrationOrderAndTags)
{
    MetricsRegistry reg;
    reg.counter("a.count");
    reg.gauge("b.gauge", Stability::WallTime);
    reg.stat("c.stat");
    reg.histogram("d.hist", 1.0, 2.0, 8);
    reg.freeze();
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.metrics.size(), 4U);
    EXPECT_EQ(snap.metrics[0].name, "a.count");
    EXPECT_EQ(snap.metrics[1].name, "b.gauge");
    EXPECT_EQ(snap.metrics[2].name, "c.stat");
    EXPECT_EQ(snap.metrics[3].name, "d.hist");
    EXPECT_EQ(snap.metrics[0].kind, MetricKind::Counter);
    EXPECT_EQ(snap.metrics[1].stability, Stability::WallTime);
    EXPECT_EQ(snap.metrics[2].stability, Stability::Deterministic);
    EXPECT_EQ(snap.metrics[3].buckets.size(), 8U + 2U);
}

TEST(MetricsRegistryTest, GaugeSetAndSetMax)
{
    MetricsRegistry reg;
    const MetricId g = reg.gauge("g");
    reg.freeze();
    reg.set(g, 4.0);
    reg.setMax(g, 2.0); // below current: no change
    EXPECT_EQ(reg.snapshot().metrics[0].value, 4.0);
    reg.setMax(g, 9.0);
    EXPECT_EQ(reg.snapshot().metrics[0].value, 9.0);
}

TEST(MetricsRegistryTest, RegistrationAfterFreezePanics)
{
    MetricsRegistry reg;
    reg.counter("ok");
    reg.freeze();
    EXPECT_TRUE(reg.frozen());
    EXPECT_THROW(reg.counter("late"), util::PanicError);
    EXPECT_THROW(reg.freeze(), util::PanicError);
}

TEST(MetricsSnapshotTest, MergeAddsCountersGaugesAndBuckets)
{
    const auto build = [](std::uint64_t hits, double depth,
                          double obs) {
        MetricsRegistry reg;
        const MetricId c = reg.counter("hits");
        const MetricId g = reg.gauge("depth");
        const MetricId s = reg.stat("lat");
        const MetricId h = reg.histogram("h", 1.0, 2.0, 4);
        reg.freeze();
        reg.add(c, hits);
        reg.set(g, depth);
        reg.record(s, obs);
        reg.histAdd(h, obs);
        return reg.snapshot();
    };
    MetricsSnapshot a = build(10, 1.5, 2.0);
    const MetricsSnapshot b = build(32, 2.5, 6.0);
    a.merge(b);
    EXPECT_EQ(a.find("hits")->count, 42U);
    EXPECT_EQ(a.find("depth")->value, 4.0);
    EXPECT_EQ(a.find("lat")->stat.count(), 2U);
    EXPECT_EQ(a.find("lat")->stat.mean(), 4.0);
    EXPECT_EQ(a.find("h")->histCount(), 2U);
}

TEST(MetricsSnapshotTest, MergeAppendsUnknownMetrics)
{
    MetricsRegistry reg;
    reg.counter("common");
    reg.freeze();
    MetricsSnapshot a = reg.snapshot();

    MetricsRegistry other;
    other.counter("common");
    other.counter("extra");
    other.freeze();
    a.merge(other.snapshot());
    ASSERT_EQ(a.metrics.size(), 2U);
    EXPECT_EQ(a.metrics[1].name, "extra");
}

TEST(MetricsSnapshotTest, FindReturnsNullForAbsentName)
{
    MetricsSnapshot snap;
    EXPECT_EQ(snap.find("nope"), nullptr);
    EXPECT_TRUE(snap.empty());
}

TEST(MetricsExportTest, JsonCarriesSchemaKindAndStabilityTags)
{
    MetricsRegistry reg;
    const MetricId c = reg.counter("e.ticks");
    reg.stat("e.wall", Stability::WallTime);
    reg.freeze();
    reg.add(c, 7);
    std::ostringstream os;
    writeMetricsJson(os, reg.snapshot());
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"pliant-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"e.ticks\", \"kind\": "
                        "\"counter\", \"stability\": "
                        "\"deterministic\", \"count\": 7"),
              std::string::npos);
    EXPECT_NE(json.find("\"stability\": \"wall_time\""),
              std::string::npos);
    // An empty stat exports finite zeros (RunningStats clamps empty
    // min/max), and nothing in an export may be an inf/nan literal —
    // JSON has neither.
    EXPECT_NE(json.find("\"count\": 0, \"mean\": 0"),
              std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(MetricsExportTest, TableListsEveryMetric)
{
    MetricsRegistry reg;
    reg.counter("one");
    reg.gauge("two");
    reg.freeze();
    std::ostringstream os;
    metricsTable(reg.snapshot()).print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("one"), std::string::npos);
    EXPECT_NE(text.find("two"), std::string::npos);
    EXPECT_NE(text.find("counter"), std::string::npos);
    EXPECT_NE(text.find("gauge"), std::string::npos);
}

TEST(MetricsExportTest, TablePrintsWallDurationsInAdaptiveUnits)
{
    // Per-tick phase timers read tens of ns to tens of us; four
    // fixed decimals of seconds would print every one as 0.0000.
    MetricsRegistry reg;
    const MetricId phase = reg.stat("p.phase_wall_s", Stability::WallTime);
    const MetricId epoch = reg.gauge("p.epoch_wall_s", Stability::WallTime);
    const MetricId depth = reg.gauge("p.queue_depth", Stability::WallTime);
    const MetricId det = reg.gauge("p.det");
    reg.freeze();
    reg.record(phase, 250e-9);
    reg.record(phase, 350e-9);
    reg.set(epoch, 0.0125);
    reg.set(depth, 3.0);
    reg.set(det, 250e-9);
    std::ostringstream os;
    metricsTable(reg.snapshot()).print(os);
    const std::string text = os.str();
    using testing::HasSubstr;
    EXPECT_THAT(text, HasSubstr("n=2 mean=300.0 ns max=350.0 ns"));
    EXPECT_THAT(text, HasSubstr("12.500 ms"));
    // Wall-time values that are not durations, and deterministic
    // values, keep the plain number format.
    EXPECT_THAT(text, HasSubstr("3.0000"));
    EXPECT_THAT(text, HasSubstr("0.0000"));
    EXPECT_THAT(text, testing::Not(HasSubstr("3.000 s")));
}

TEST(MetricsRegistryTest, UpdatesOnFrozenRegistryDoNotAllocate)
{
    // The warmed tick loop relies on every update path being
    // heap-free; registration allocates all storage, so the update
    // methods are plain array writes. Verified for real (with a global
    // operator-new trap) in colo_tick_alloc_test; here we just pin
    // the shapes that make it possible.
    MetricsRegistry reg;
    const MetricId c = reg.counter("c");
    const MetricId h = reg.histogram("h", 1.0, 2.0, 16);
    const MetricId g = reg.gauge("g");
    const MetricId s = reg.stat("s");
    reg.freeze();
    for (unsigned i = 0; i < 4; ++i) {
        reg.add(c);
        reg.histAdd(h, 3.0);
    }
    reg.set(g, 1.0);
    reg.record(s, 2.0);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("c")->count, 4U);
    EXPECT_EQ(snap.find("h")->histCount(), 4U);
}

} // namespace
} // namespace obs
} // namespace pliant
