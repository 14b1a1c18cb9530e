/**
 * @file
 * Tests for LLC way partitioning and its interference interaction.
 */

#include "server/partition.hh"

#include <gtest/gtest.h>

#include "server/interference.hh"
#include "util/logging.hh"

namespace {

using namespace pliant::server;
using pliant::approx::PressureVector;

TEST(CachePartitionTest, UnpartitionedByDefault)
{
    ServerSpec spec;
    CachePartition p(spec);
    EXPECT_FALSE(p.isolated());
    EXPECT_EQ(p.serviceWays(), 0);
    EXPECT_DOUBLE_EQ(p.serviceCapacityMb(), spec.llcMB);
    EXPECT_DOUBLE_EQ(p.corunnerCapacityMb(), spec.llcMB);
}

TEST(CachePartitionTest, GrowAndShrink)
{
    ServerSpec spec; // 20 ways
    CachePartition p(spec);
    EXPECT_TRUE(p.grow());
    EXPECT_EQ(p.serviceWays(), 1);
    EXPECT_TRUE(p.isolated());
    EXPECT_TRUE(p.shrink());
    EXPECT_FALSE(p.isolated());
    EXPECT_FALSE(p.shrink()); // already at zero
}

TEST(CachePartitionTest, GrowBoundedByCorunnerMinimum)
{
    ServerSpec spec;
    CachePartition p(spec, spec.llcWays - CachePartition::minCorunnerWays);
    EXPECT_FALSE(p.grow());
}

TEST(CachePartitionTest, CapacitySplitsProportionally)
{
    ServerSpec spec; // 55 MB, 20 ways
    CachePartition p(spec, 4);
    EXPECT_DOUBLE_EQ(p.serviceCapacityMb(), 55.0 * 4 / 20);
    EXPECT_DOUBLE_EQ(p.corunnerCapacityMb(), 55.0 * 16 / 20);
}

TEST(CachePartitionTest, InvalidInitialWaysIsFatal)
{
    ServerSpec spec;
    EXPECT_THROW(CachePartition p(spec, -1), pliant::util::FatalError);
    EXPECT_THROW(CachePartition q(spec, 99), pliant::util::FatalError);
}

TEST(CachePartitionTest, BwAmplificationOnlyWhenSqueezed)
{
    ServerSpec spec;
    CachePartition shared(spec, 0);
    EXPECT_DOUBLE_EQ(shared.corunnerBwAmplification(200.0), 1.0);

    CachePartition tight(spec, 12); // co-runners get 8/20 = 22 MB
    EXPECT_DOUBLE_EQ(tight.corunnerBwAmplification(10.0), 1.0);
    EXPECT_GT(tight.corunnerBwAmplification(44.0), 1.0);
    EXPECT_LE(tight.corunnerBwAmplification(1000.0), 2.0);
}

class PartitionedInterferenceTest : public ::testing::Test
{
  protected:
    ServerSpec spec;
    InterferenceModel model{spec};
    const CachePartition unpartitioned{spec};
    PressureVector service{0.9, 16.0, 18.0, 6.0};
    PressureVector heavy{0.8, 48.0, 25.0, 0.0};
};

TEST_F(PartitionedInterferenceTest, IsolationRemovesLlcContention)
{
    // Give the service 8 ways (22 MB) — enough for its 16 MB set.
    CachePartition part(spec, 8);
    const auto shared =
        model.contentionMulti(service, {}, {heavy}, unpartitioned);
    const auto isolated = model.contentionMulti(service, {}, {heavy}, part);
    EXPECT_GT(shared.llc, 0.0);
    EXPECT_EQ(isolated.llc, 0.0);
}

TEST_F(PartitionedInterferenceTest, TooSmallPartitionHurtsService)
{
    // One way = 2.75 MB for a 16 MB working set: self-thrashing.
    CachePartition tiny(spec, 1);
    const auto c = model.contentionMulti(service, {}, {heavy}, tiny);
    EXPECT_GT(c.llc, 0.0);
}

TEST_F(PartitionedInterferenceTest, SqueezedCorunnersRaiseBwContention)
{
    CachePartition part(spec, 12); // co-runners: 22 MB for a 48 MB set
    const auto shared =
        model.contentionMulti(service, {}, {heavy}, unpartitioned);
    const auto isolated = model.contentionMulti(service, {}, {heavy}, part);
    EXPECT_GE(isolated.membw, shared.membw);
}

TEST_F(PartitionedInterferenceTest, NetBenefitForLlcSensitiveService)
{
    // The whole point of the extension: for an LLC-dominated
    // interferer, isolating ways lowers total weighted contention.
    CachePartition part(spec, 8);
    Sensitivity sens{0.2, 0.05, 0.05, 0.1};
    const double shared = model.inflation(
        model.contentionMulti(service, {}, {heavy}, unpartitioned), sens);
    const double isolated = model.inflation(
        model.contentionMulti(service, {}, {heavy}, part), sens);
    EXPECT_LT(isolated, shared);
}

} // namespace
