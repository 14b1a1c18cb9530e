/**
 * @file
 * Tests for the shared-resource interference model.
 */

#include "server/interference.hh"

#include <gtest/gtest.h>

namespace {

using namespace pliant::server;
using pliant::approx::PressureVector;

class InterferenceTest : public ::testing::Test
{
  protected:
    ServerSpec spec;
    InterferenceModel model{spec};
    const CachePartition unpartitioned{spec};
    PressureVector service{0.9, 16.0, 18.0, 6.0};
};

TEST_F(InterferenceTest, NoCorunnersMeansNoContention)
{
    const auto c = model.contentionMulti(service, {}, {}, unpartitioned);
    EXPECT_EQ(c.llc, 0.0);
    EXPECT_EQ(c.membw, 0.0);
    EXPECT_EQ(c.compute, 0.0);
    EXPECT_EQ(c.activity, 0.0);
    EXPECT_DOUBLE_EQ(model.inflation(c, Sensitivity{}), 1.0);
}

TEST_F(InterferenceTest, SmallFootprintBelowThresholdsIsFree)
{
    // Tiny co-runner: combined LLC < 50% of 55 MB, bw < 35% of peak.
    const auto c = model.contentionMulti(
        service, {}, {PressureVector{0.1, 4.0, 2.0, 0.0}}, unpartitioned);
    EXPECT_EQ(c.llc, 0.0);
    EXPECT_EQ(c.membw, 0.0);
    EXPECT_GT(c.activity, 0.0); // presence is still felt
}

TEST_F(InterferenceTest, LlcContentionGrowsWithOccupancy)
{
    const auto small = model.contentionMulti(
        service, {}, {PressureVector{0.8, 20.0, 5.0, 0.0}}, unpartitioned);
    const auto large = model.contentionMulti(
        service, {}, {PressureVector{0.8, 45.0, 5.0, 0.0}}, unpartitioned);
    EXPECT_GT(large.llc, small.llc);
    EXPECT_GT(large.llc, 0.0);
}

TEST_F(InterferenceTest, LlcContentionIsCapped)
{
    const auto c = model.contentionMulti(
        service, {}, {PressureVector{1.0, 500.0, 0.0, 0.0}}, unpartitioned);
    EXPECT_LE(c.llc, 1.6);
}

TEST_F(InterferenceTest, BandwidthContentionGrowsWithDemand)
{
    const auto low = model.contentionMulti(
        service, {}, {PressureVector{0.8, 5.0, 10.0, 0.0}}, unpartitioned);
    const auto high = model.contentionMulti(
        service, {}, {PressureVector{0.8, 5.0, 50.0, 0.0}}, unpartitioned);
    EXPECT_GE(high.membw, low.membw);
    EXPECT_GT(high.membw, 0.0);
}

TEST_F(InterferenceTest, MultipleCorunnersAccumulate)
{
    const PressureVector one{0.8, 20.0, 15.0, 0.0};
    const auto single =
        model.contentionMulti(service, {}, {one}, unpartitioned);
    const auto pair =
        model.contentionMulti(service, {}, {one, one}, unpartitioned);
    EXPECT_GT(pair.llc, single.llc);
    EXPECT_GT(pair.membw, single.membw);
    EXPECT_GT(pair.activity, single.activity);
}

TEST_F(InterferenceTest, SensitivityWeighting)
{
    const auto c = model.contentionMulti(
        service, {}, {PressureVector{0.9, 40.0, 40.0, 0.0}}, unpartitioned);
    Sensitivity insensitive{0.01, 0.01, 0.01, 0.01};
    Sensitivity sensitive{0.5, 0.5, 0.2, 0.3};
    EXPECT_LT(model.inflation(c, insensitive), model.inflation(c, sensitive));
    EXPECT_GE(model.inflation(c, insensitive), 1.0);
}

TEST_F(InterferenceTest, ApproximationReducesInflation)
{
    // A variant that halves LLC/bandwidth pressure must reduce the
    // service-time inflation — the mechanism Pliant relies on.
    const PressureVector precise{0.9, 40.0, 30.0, 0.0};
    const PressureVector approx = precise.scaled(0.9, 0.5, 0.5);
    Sensitivity sens; // defaults
    const double infl_precise = model.inflation(
        model.contentionMulti(service, {}, {precise}, unpartitioned), sens);
    const double infl_approx = model.inflation(
        model.contentionMulti(service, {}, {approx}, unpartitioned), sens);
    EXPECT_LT(infl_approx, infl_precise);
}

TEST_F(InterferenceTest, CapacityAccessors)
{
    EXPECT_DOUBLE_EQ(model.llcCapacityMb(), 55.0);
    EXPECT_DOUBLE_EQ(model.peakBwGbs(), 76.8);
}

TEST_F(InterferenceTest, ComputeChannelIsSmall)
{
    const auto c = model.contentionMulti(
        service, {}, {PressureVector{1.0, 0.0, 0.0, 0.0}}, unpartitioned);
    EXPECT_LE(c.compute, 0.10 + 1e-12);
}

/** Inflation is monotone in each pressure channel. */
class MonotonicityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MonotonicityTest, InflationMonotoneInChannel)
{
    ServerSpec spec;
    InterferenceModel model(spec);
    const CachePartition unpartitioned(spec);
    const PressureVector service{0.9, 16.0, 18.0, 6.0};
    Sensitivity sens;
    double prev = 0.0;
    for (int step = 0; step <= 10; ++step) {
        PressureVector p{0.5, 10.0, 8.0, 0.0};
        const double level = step * 6.0;
        switch (GetParam()) {
            case 0:
                p.llcMb = level;
                break;
            case 1:
                p.membwGbs = level;
                break;
            case 2:
                p.compute = step * 0.1;
                break;
        }
        const double infl = model.inflation(
            model.contentionMulti(service, {}, {p}, unpartitioned), sens);
        EXPECT_GE(infl, prev - 1e-12)
            << "channel " << GetParam() << " step " << step;
        prev = infl;
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, MonotonicityTest,
                         ::testing::Values(0, 1, 2));

TEST_F(InterferenceTest, NoPeersMatchesTheSingleServiceFormulas)
{
    // With no peers the model is the single-service one every
    // one-tenant run uses: each channel below is its formula worked
    // by hand, shared and partitioned.
    const std::vector<PressureVector> tasks{
        PressureVector{0.8, 30.0, 14.0, 0.0},
        PressureVector{0.6, 12.0, 9.0, 0.0}};
    const double llc_x = ((16.0 + 30.0 + 12.0) / 55.0 - 0.5) / 0.7;
    const double bw_x = ((18.0 + 14.0 + 9.0) / 76.8 - 0.35) / 0.65;
    const double compute = 0.10 * (0.8 + 0.6);
    const double activity =
        0.5 * 0.8 + 0.5 * (14.0 / 22.0) + 0.5 * 0.6 + 0.5 * (9.0 / 22.0);

    const auto shared =
        model.contentionMulti(service, {}, tasks, unpartitioned);
    EXPECT_DOUBLE_EQ(shared.llc, llc_x * llc_x);
    EXPECT_DOUBLE_EQ(shared.membw, bw_x * bw_x);
    EXPECT_DOUBLE_EQ(shared.compute, compute);
    EXPECT_DOUBLE_EQ(shared.activity, activity);

    // 12 isolated ways (33 MB) hold the 16 MB working set, so the LLC
    // term vanishes; the tasks' 42 MB squeezed into 8 ways (22 MB)
    // amplify their 23 GB/s of DRAM traffic.
    const CachePartition part(spec, 12);
    const double amp = 1.0 + (42.0 - 22.0) / 22.0 * 0.8;
    const double pbw_x = ((18.0 + 23.0 * amp) / 76.8 - 0.35) / 0.65;
    const auto isolated = model.contentionMulti(service, {}, tasks, part);
    EXPECT_EQ(isolated.llc, 0.0);
    EXPECT_DOUBLE_EQ(isolated.membw, pbw_x * pbw_x);
    EXPECT_DOUBLE_EQ(isolated.compute, compute);
    EXPECT_DOUBLE_EQ(isolated.activity, activity);
}

TEST_F(InterferenceTest, PartitionedPeersShareServiceSideUnamplified)
{
    // One peer service inside the partition, tasks outside it.
    const PressureVector peer{0.7, 12.0, 10.0, 8.0};
    const std::vector<PressureVector> tasks{
        PressureVector{0.8, 30.0, 14.0, 0.0}};
    CachePartition part(spec, 0);
    while (part.serviceWays() < 6)
        ASSERT_TRUE(part.grow());

    const auto with_peer = model.contentionMulti(service, {peer}, tasks, part);
    const auto alone = model.contentionMulti(service, {}, tasks, part);

    // The peer's working set counts against the service-side
    // capacity: adding it can only raise (here: strictly raises) the
    // LLC overflow term.
    EXPECT_GT(with_peer.llc, alone.llc);

    // The peer's bandwidth lands unamplified: the membw term must
    // equal a run where the peer's demand is simply added to the
    // service's own (and be strictly less than what task-side
    // amplification of the same traffic would produce).
    PressureVector self_plus_peer_bw = service;
    self_plus_peer_bw.membwGbs += peer.membwGbs;
    PressureVector peer_no_bw = peer;
    peer_no_bw.membwGbs = 0.0;
    const auto folded =
        model.contentionMulti(self_plus_peer_bw, {peer_no_bw}, tasks, part);
    EXPECT_DOUBLE_EQ(with_peer.membw, folded.membw);

    PressureVector peer_as_task = peer;
    const auto squeezed =
        model.contentionMulti(service, {}, {tasks[0], peer_as_task}, part);
    EXPECT_LT(with_peer.membw, squeezed.membw);
}

} // namespace
