/**
 * @file
 * Tests for the CSV trace exporter and the partition/learned runtime
 * integration through the colocation harness.
 */

#include "colo/trace.hh"

#include <sstream>

#include <gtest/gtest.h>

#include "colo/engine.hh"

namespace {

using namespace pliant;
using namespace pliant::colo;

ColoResult
sampleRun(core::RuntimeKind kind = core::RuntimeKind::Pliant,
          bool partitioning = false)
{
    ColoConfig cfg;
    cfg.service = services::ServiceKind::Memcached;
    cfg.apps = {"canneal"};
    cfg.runtime = kind;
    cfg.enableCachePartitioning = partitioning;
    cfg.seed = 33;
    Engine exp(cfg);
    return exp.run();
}

TEST(TraceTest, TimelineCsvHasHeaderAndRows)
{
    const ColoResult r = sampleRun();
    std::ostringstream os;
    writeTimelineCsv(os, r);
    std::istringstream is(os.str());
    std::string header;
    std::getline(is, header);
    EXPECT_NE(header.find("t_s"), std::string::npos);
    EXPECT_NE(header.find("canneal_variant"), std::string::npos);
    std::size_t rows = 0;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            ++rows;
    EXPECT_EQ(rows, r.timeline.size());
}

TEST(TraceTest, SummaryCsvRoundTripsKeyFields)
{
    const ColoResult r = sampleRun();
    std::ostringstream os;
    writeSummaryCsv(os, r);
    const std::string out = os.str();
    EXPECT_NE(out.find("memcached"), std::string::npos);
    EXPECT_NE(out.find("pliant"), std::string::npos);
    EXPECT_NE(out.find("canneal"), std::string::npos);
}

TEST(TraceTest, MultiAppColumnsPerApp)
{
    ColoConfig cfg;
    cfg.service = services::ServiceKind::Nginx;
    cfg.apps = {"canneal", "bayesian"};
    cfg.seed = 34;
    Engine exp(cfg);
    const ColoResult r = exp.run();
    std::ostringstream os;
    writeTimelineCsv(os, r);
    std::istringstream is(os.str());
    std::string header;
    std::getline(is, header);
    EXPECT_NE(header.find("canneal_variant"), std::string::npos);
    EXPECT_NE(header.find("bayesian_variant"), std::string::npos);
    EXPECT_NE(header.find("bayesian_reclaimed"), std::string::npos);
}

TEST(TraceTest, SummaryCsvForAppLessNodeHasNoNan)
{
    // Zero-app engines are legal cluster states (a node can host
    // only services); the per-app means must print "-" instead of
    // dividing by zero and emitting "-nan".
    ColoConfig cfg;
    ServiceSpec svc;
    svc.kind = services::ServiceKind::Memcached;
    svc.scenario = Scenario::constant(0.6);
    cfg.services = {svc};
    cfg.apps = {};
    cfg.seed = 35;
    Engine exp(cfg);
    exp.advanceUntil(30 * sim::kSecond,
                     /*keep_services_running=*/true);
    const ColoResult r = exp.finalize();
    EXPECT_TRUE(r.apps.empty());

    std::ostringstream os;
    writeSummaryCsv(os, r);
    const std::string out = os.str();
    EXPECT_EQ(out.find("nan"), std::string::npos) << out;
    EXPECT_EQ(out.find("inf"), std::string::npos) << out;
    EXPECT_NE(out.find(",-,-"), std::string::npos) << out;
}

TEST(TraceTest, StreamingRunMatchesRetainedSummaryBytes)
{
    // The streaming contract: retainTimeline only changes what is
    // kept in memory, never a reported number — the same config run
    // both ways produces byte-identical summary CSVs.
    ColoConfig cfg;
    cfg.service = services::ServiceKind::Memcached;
    cfg.apps = {"canneal", "bayesian"};
    cfg.seed = 36;

    ColoConfig streaming_cfg = cfg;
    streaming_cfg.retainTimeline = false;

    Engine retained_run(cfg);
    const ColoResult retained = retained_run.run();
    Engine streaming_run(streaming_cfg);
    const ColoResult streaming = streaming_run.run();

    EXPECT_FALSE(retained.timeline.empty());
    EXPECT_TRUE(streaming.timeline.empty());
    EXPECT_EQ(streaming.steadyP99Us, retained.steadyP99Us);
    EXPECT_EQ(streaming.meanIntervalP99Us,
              retained.meanIntervalP99Us);
    EXPECT_EQ(streaming.qosMetFraction, retained.qosMetFraction);
    EXPECT_EQ(streaming.maxCoresReclaimedTotal,
              retained.maxCoresReclaimedTotal);
    EXPECT_EQ(streaming.typicalCoresReclaimed,
              retained.typicalCoresReclaimed);

    std::ostringstream a, b;
    writeSummaryCsv(a, retained);
    writeSummaryCsv(b, streaming);
    EXPECT_EQ(a.str(), b.str());
}

TEST(PartitionIntegrationTest, PartitioningPrecedesCoreReclamation)
{
    const ColoResult with = sampleRun(core::RuntimeKind::Pliant, true);
    // Canneal + memcached needs more than approximation; with the
    // cache extension the runtime grows the partition, so ways are
    // used and fewer (or equal) cores are taken.
    const ColoResult without =
        sampleRun(core::RuntimeKind::Pliant, false);
    EXPECT_GT(with.maxPartitionWays, 0);
    EXPECT_LE(with.maxCoresReclaimedTotal,
              without.maxCoresReclaimedTotal);
    EXPECT_EQ(without.maxPartitionWays, 0);
}

TEST(PartitionIntegrationTest, PartitionedRunStillMeetsQos)
{
    // NGINX is the LLC-sensitive service here, so cache isolation is
    // an effective lever for it (for memcached the runtime's
    // futility detection falls through to cores instead).
    ColoConfig cfg;
    cfg.service = services::ServiceKind::Nginx;
    cfg.apps = {"canneal"};
    cfg.enableCachePartitioning = true;
    cfg.seed = 33;
    Engine exp(cfg);
    const ColoResult r = exp.run();
    EXPECT_LE(r.meanIntervalP99Us, 1.10 * r.qosUs);
    EXPECT_GT(r.maxPartitionWays, 0);
}

TEST(LearnedIntegrationTest, LearnedRuntimeControlsTheColocation)
{
    const ColoResult r = sampleRun(core::RuntimeKind::Learned);
    EXPECT_EQ(r.runtime, "learned");
    // The learner must actuate (switches happen) and keep quality
    // within the catalog budget.
    EXPECT_GT(r.apps[0].switches, 0);
    EXPECT_LE(r.apps[0].inaccuracy, 0.06);
    // And it should do clearly better than the precise baseline.
    const ColoResult precise = sampleRun(core::RuntimeKind::Precise);
    EXPECT_LT(r.steadyP99Us, precise.steadyP99Us);
}

TEST(LearnedIntegrationTest, LearnedSacrificesLessQualityThanPliant)
{
    // After convergence the learner picks the minimal adequate
    // variant instead of jumping to most-approximate, so across an
    // easy colocation its quality loss should not exceed Pliant's by
    // much (and is typically lower).
    const ColoConfig base = [] {
        ColoConfig c;
        c.service = services::ServiceKind::MongoDb;
        c.apps = {"bayesian"};
        c.seed = 35;
        return c;
    }();
    ColoConfig pl = base;
    pl.runtime = core::RuntimeKind::Pliant;
    ColoConfig ln = base;
    ln.runtime = core::RuntimeKind::Learned;
    Engine pe(pl), le(ln);
    const double pliant_inacc = pe.run().apps[0].inaccuracy;
    const double learned_inacc = le.run().apps[0].inaccuracy;
    EXPECT_LE(learned_inacc, pliant_inacc + 0.01);
}

TEST(TraceTest, MultiServiceTimelineAddsPerServiceColumns)
{
    const sim::Time s = sim::kSecond;
    ColoConfig cfg = makeMultiServiceConfig(
        {{services::ServiceKind::Memcached, Scenario::constant(0.7), {}},
         {services::ServiceKind::Nginx,
          Scenario::flashCrowd(0.6, 0.9, 20 * s, 2 * s, 10 * s, 5 * s),
          {}}},
        {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 36);
    cfg.maxDuration = 60 * s;
    Engine exp(cfg);
    const ColoResult r = exp.run();

    std::ostringstream os;
    writeTimelineCsv(os, r);
    std::istringstream is(os.str());
    std::string header;
    std::getline(is, header);
    // Base columns still describe the primary service (exact header
    // prefix — a bare find() would also match "nginx_p99_us")...
    EXPECT_EQ(header.rfind("t_s,p99_us,", 0), 0u);
    // ... and the secondary service gets its own series.
    EXPECT_NE(header.find("nginx_p99_us"), std::string::npos);
    EXPECT_NE(header.find("nginx_load"), std::string::npos);

    std::ostringstream sum;
    writeSummaryCsv(sum, r);
    std::istringstream sis(sum.str());
    std::string line;
    std::size_t rows = 0;
    std::getline(sis, line); // header
    while (std::getline(sis, line))
        if (!line.empty())
            ++rows;
    // One summary row per interactive service.
    EXPECT_EQ(rows, 2u);
    EXPECT_NE(sum.str().find("memcached"), std::string::npos);
    EXPECT_NE(sum.str().find("nginx"), std::string::npos);
}

} // namespace
