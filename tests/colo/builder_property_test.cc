/**
 * @file
 * Property-style sweep over the validated config builders: a seeded
 * SplitMix64 stream drives randomized *invalid* configurations
 * through colo::ConfigBuilder and cluster::ClusterConfigBuilder, and
 * every one of them must throw util::FatalError at build() time —
 * never later, inside the tick loop (where a zero tick would hang
 * and a bad variant index would fault). Invalid admission-control
 * fields are one of the randomized classes, so the front-end's
 * config surface is held to the same contract. NaN and ±inf are
 * among the random invalid values, and one test sweeps them over
 * every floating-point field. Randomized *valid* configurations
 * (with and without an admission front-end) must build and construct
 * their Engine/Cluster without throwing. Bad timing knobs must fail
 * with the same message through either builder.
 */

#include <cctype>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admission/admission.hh"
#include "approx/profile.hh"
#include "budget/budget.hh"
#include "cluster/cluster.hh"
#include "colo/builder.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace pliant;

constexpr sim::Time kS = sim::kSecond;

/** Deterministic pick of n distinct catalog names. */
std::vector<std::string>
pickApps(util::SplitMix64 &sm, std::size_t n)
{
    const auto names = approx::catalogNames();
    EXPECT_GE(names.size(), n);
    // Fisher-Yates over a copy, driven by the SplitMix64 stream.
    std::vector<std::string> pool = names;
    for (std::size_t i = pool.size() - 1; i > 0; --i)
        std::swap(pool[i], pool[sm.next() % (i + 1)]);
    pool.resize(n);
    return pool;
}

double
loadDraw(util::SplitMix64 &sm)
{
    return 0.3 + 0.6 * static_cast<double>(sm.next() % 1000) / 1000.0;
}

/** The values no floating-point config field may take. */
const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

/** One of NaN, +inf, -inf, drawn from the stream. */
double
nonFiniteDraw(util::SplitMix64 &sm)
{
    return kNonFinite[sm.next() % std::size(kNonFinite)];
}

/** Every floating-point field of an admission config. */
std::vector<double *>
floatFields(admission::AdmissionConfig &cfg)
{
    return {&cfg.queueBoundQos,       &cfg.shedThreshold,
            &cfg.shedAggressiveness,  &cfg.maxShedFraction,
            &cfg.batchTimeoutUs,      &cfg.batchEfficiency,
            &cfg.dispatchUtilization, &cfg.arrivalJitter};
}

/** Every floating-point field of a budget config. */
std::vector<double *>
floatFields(budget::BudgetConfig &cfg)
{
    return {&cfg.qualityBudget, &cfg.shedBudget, &cfg.alpha};
}

/**
 * A randomly-invalid (enabled) admission config: exactly one field
 * driven out of range, everything else default.
 */
admission::AdmissionConfig
invalidAdmissionDraw(util::SplitMix64 &sm)
{
    admission::AdmissionConfig cfg;
    cfg.enabled = true;
    switch (sm.next() % 9) {
        case 0:
            cfg.queueBoundQos = -static_cast<double>(sm.next() % 100) / 10.0;
            break;
        case 1:
            cfg.shedThreshold =
                1.0 + static_cast<double>(sm.next() % 100) / 100.0;
            break;
        case 2:
            cfg.shedAggressiveness = 0.0;
            break;
        case 3:
            cfg.maxShedFraction =
                1.0 + static_cast<double>(1 + sm.next() % 100) / 100.0;
            break;
        case 4:
            cfg.batchSize = -static_cast<int>(sm.next() % 5);
            break;
        case 5:
            cfg.batchTimeoutUs = 0.0;
            break;
        case 6:
            cfg.batchEfficiency =
                1.0 + static_cast<double>(sm.next() % 50) / 100.0;
            break;
        case 7: { // NaN or infinite
            const std::vector<double *> fields = floatFields(cfg);
            *fields[sm.next() % fields.size()] = nonFiniteDraw(sm);
            break;
        }
        default:
            cfg.dispatchUtilization =
                sm.next() % 2 == 0
                    ? 0.0
                    : 1.0 + static_cast<double>(1 + sm.next() % 50) / 100.0;
            break;
    }
    return cfg;
}

/**
 * A randomly-invalid (enabled) budget config: exactly one field
 * driven out of range, everything else default.
 */
budget::BudgetConfig
invalidBudgetDraw(util::SplitMix64 &sm)
{
    budget::BudgetConfig cfg;
    cfg.enabled = true;
    switch (sm.next() % 4) {
        case 0:
            cfg.qualityBudget =
                -static_cast<double>(1 + sm.next() % 100) / 100.0;
            break;
        case 1:
            cfg.shedBudget = -static_cast<double>(1 + sm.next() % 100) / 100.0;
            break;
        case 2: { // NaN or infinite
            const std::vector<double *> fields = floatFields(cfg);
            *fields[sm.next() % fields.size()] = nonFiniteDraw(sm);
            break;
        }
        default:
            cfg.alpha =
                sm.next() % 2 == 0
                    ? 0.0
                    : 1.0 + static_cast<double>(1 + sm.next() % 50) / 100.0;
            break;
    }
    return cfg;
}

/** A valid one-node colocation: memcached plus one app. */
colo::ConfigBuilder
coloBase()
{
    colo::ConfigBuilder builder;
    builder.service(services::ServiceKind::Memcached,
                    colo::Scenario::constant(0.6));
    builder.app("canneal");
    return builder;
}

/** A valid two-node cluster: memcached on each node, one app. */
cluster::ClusterConfigBuilder
clusterBase()
{
    cluster::ClusterConfigBuilder builder;
    builder.nodes(2);
    builder.serviceOnAll(services::ServiceKind::Memcached,
                         colo::Scenario::constant(0.6));
    builder.app("canneal");
    return builder;
}

/** build()'s util::FatalError message; empty when nothing threw. */
template <typename Builder>
std::string
buildError(const Builder &builder)
{
    try {
        builder.build();
    } catch (const util::FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(BuilderPropertyTest, RandomInvalidColoConfigsThrowAtBuildTime)
{
    util::SplitMix64 sm(0xC010BADu);
    for (int iter = 0; iter < 120; ++iter) {
        colo::ConfigBuilder builder;
        builder.service(services::ServiceKind::Memcached,
                        colo::Scenario::constant(loadDraw(sm)));
        const auto kind = sm.next() % 8;
        switch (kind) {
            case 0: { // duplicate app
                const auto apps = pickApps(sm, 1);
                builder.app(apps[0]).app(apps[0]);
                break;
            }
            case 1: { // unknown catalog name
                builder.app("no-such-app-" + std::to_string(sm.next() % 1000));
                break;
            }
            case 2: { // out-of-range initial variant
                const auto apps = pickApps(sm, 1);
                const auto &prof = approx::findProfile(apps[0]);
                const int bad = sm.next() % 2 == 0
                                    ? static_cast<int>(prof.variants.size()) +
                                          static_cast<int>(sm.next() % 5)
                                    : -1 - static_cast<int>(sm.next() % 3);
                builder.app(apps[0], bad);
                break;
            }
            case 3: { // duplicate resolved service name
                builder.service(services::ServiceKind::Memcached,
                                colo::Scenario::constant(loadDraw(sm)));
                builder.apps(pickApps(sm, 1));
                break;
            }
            case 4: { // fair-core starvation: too many tenants
                builder.service(services::ServiceKind::Nginx,
                                colo::Scenario::constant(loadDraw(sm)));
                builder.apps(
                    pickApps(sm, 15 + sm.next() % 8)); // >= 15 starves
                break;
            }
            case 5: { // non-positive timing
                builder.apps(pickApps(sm, 1));
                switch (sm.next() % 3) {
                    case 0:
                        builder.tick(-static_cast<sim::Time>(sm.next() % 5));
                        break;
                    case 1:
                        builder.decisionInterval(0);
                        break;
                    default:
                        builder.maxDuration(
                            -static_cast<sim::Time>(sm.next() % 100));
                        break;
                }
                break;
            }
            case 6: { // decision interval shorter than the tick
                builder.apps(pickApps(sm, 1));
                builder.tick(10 * sim::kMillisecond);
                builder.decisionInterval(sim::kMillisecond);
                break;
            }
            default: { // out-of-range admission field
                builder.apps(pickApps(sm, 1));
                builder.admission(invalidAdmissionDraw(sm));
                break;
            }
        }
        EXPECT_THROW(builder.build(), util::FatalError)
            << "invalid colo config class " << kind << " (iteration " << iter
            << ") must fail at build time";
    }
}

TEST(BuilderPropertyTest, RandomValidColoConfigsBuildAndConstruct)
{
    util::SplitMix64 sm(0xC010600Du);
    for (int iter = 0; iter < 24; ++iter) {
        colo::ConfigBuilder builder;
        builder.service(services::ServiceKind::Memcached,
                        colo::Scenario::constant(loadDraw(sm)));
        if (sm.next() % 2 == 0)
            builder.service("ng-shard", services::ServiceKind::Nginx,
                            colo::Scenario::constant(loadDraw(sm)));
        builder.apps(pickApps(sm, 1 + sm.next() % 3))
            .runtime(sm.next() % 2 == 0 ? core::RuntimeKind::Pliant
                                        : core::RuntimeKind::Learned)
            .seed(sm.next());
        if (sm.next() % 2 == 0)
            builder.admission(
                static_cast<admission::AdmissionKind>(sm.next() % 4),
                static_cast<admission::BatchingKind>(sm.next() % 3));
        colo::ColoConfig cfg;
        ASSERT_NO_THROW(cfg = builder.build()) << "iteration " << iter;
        // Construction binds tenants/tasks but does not tick; a valid
        // built config must never throw here either.
        ASSERT_NO_THROW(colo::Engine engine(cfg)) << "iteration " << iter;
    }
}

TEST(BuilderPropertyTest, RandomInvalidClusterConfigsThrowAtBuildTime)
{
    util::SplitMix64 sm(0xC1BADu);
    for (int iter = 0; iter < 120; ++iter) {
        cluster::ClusterConfigBuilder builder;
        const auto kind = sm.next() % 10;
        // Most classes need a well-formed base cluster first.
        if (kind != 0 && kind != 1 && kind != 9) {
            builder.nodes(1 + sm.next() % 3);
            builder.serviceOnAll(services::ServiceKind::Memcached,
                                 colo::Scenario::constant(loadDraw(sm)));
        }
        switch (kind) {
            case 0: // no nodes at all
                builder.apps(pickApps(sm, 1));
                break;
            case 1: // a node without any service
                builder.nodes(1 + sm.next() % 3);
                builder.apps(pickApps(sm, 1));
                break;
            case 2: { // duplicate node names
                builder.node("twin").service(
                    services::ServiceKind::Nginx,
                    colo::Scenario::constant(loadDraw(sm)));
                builder.node("twin").service(
                    services::ServiceKind::Nginx,
                    colo::Scenario::constant(loadDraw(sm)));
                builder.apps(pickApps(sm, 1));
                break;
            }
            case 3: // epoch shorter than the decision interval
                builder.apps(pickApps(sm, 1));
                builder.decisionInterval(kS).epoch(kS / (2 + sm.next() % 8));
                break;
            case 4: // bad timing
                builder.apps(pickApps(sm, 1));
                switch (sm.next() % 4) {
                    case 0:
                        builder.tick(0);
                        break;
                    case 1:
                        builder.epoch(-static_cast<sim::Time>(sm.next() % 50));
                        break;
                    case 2:
                        // Interval shorter than one simulation tick.
                        builder.tick(10 * sim::kMillisecond)
                            .decisionInterval(sim::kMillisecond)
                            .epoch(sim::kMillisecond);
                        break;
                    default:
                        builder.maxDuration(0);
                        break;
                }
                break;
            case 5: // unknown or duplicate app
                if (sm.next() % 2 == 0) {
                    builder.app("bogus-" + std::to_string(sm.next() % 1000));
                } else {
                    const auto apps = pickApps(sm, 1);
                    builder.app(apps[0]).app(apps[0]);
                }
                break;
            case 6: { // out-of-range initial variant
                const auto apps = pickApps(sm, 1);
                const auto &prof = approx::findProfile(apps[0]);
                builder.app(apps[0], static_cast<int>(prof.variants.size()) +
                                         static_cast<int>(sm.next() % 4));
                break;
            }
            case 7: { // out-of-range admission field
                builder.apps(pickApps(sm, 1));
                builder.admission(invalidAdmissionDraw(sm));
                break;
            }
            case 8: { // out-of-range budget field
                builder.apps(pickApps(sm, 1));
                builder.budget(invalidBudgetDraw(sm));
                break;
            }
            default: { // budget without a cluster (single node)
                builder.node("solo").service(
                    services::ServiceKind::Memcached,
                    colo::Scenario::constant(loadDraw(sm)));
                builder.apps(pickApps(sm, 1));
                builder.budget(
                    static_cast<budget::BudgetPolicy>(sm.next() % 3),
                    static_cast<double>(sm.next() % 100) / 100.0,
                    static_cast<double>(sm.next() % 100) / 100.0);
                break;
            }
        }
        EXPECT_THROW(builder.build(), util::FatalError)
            << "invalid cluster config class " << kind << " (iteration "
            << iter << ") must fail at build time";
    }
}

TEST(BuilderPropertyTest, RandomValidClusterConfigsBuildAndConstruct)
{
    util::SplitMix64 sm(0xC1600Du);
    for (int iter = 0; iter < 12; ++iter) {
        cluster::ClusterConfigBuilder builder;
        const std::size_t node_count = 1 + sm.next() % 3;
        builder.nodes(node_count);
        builder.serviceOnAll(services::ServiceKind::Memcached,
                             colo::Scenario::constant(loadDraw(sm)));
        builder.apps(pickApps(sm, 1 + sm.next() % 4))
            .placement(sm.next() % 2 == 0 ? cluster::PlacementKind::Static
                                          : cluster::PlacementKind::QosAware)
            .seed(sm.next());
        if (sm.next() % 2 == 0)
            builder.admission(
                static_cast<admission::AdmissionKind>(sm.next() % 4),
                static_cast<admission::BatchingKind>(sm.next() % 3));
        // Budgets are a cluster feature: only valid with >= 2 nodes.
        if (node_count >= 2 && sm.next() % 2 == 0)
            builder.budget(static_cast<budget::BudgetPolicy>(sm.next() % 3),
                           static_cast<double>(sm.next() % 200) / 100.0,
                           static_cast<double>(sm.next() % 300) / 100.0);
        cluster::ClusterConfig cfg;
        ASSERT_NO_THROW(cfg = builder.build()) << "iteration " << iter;
        ASSERT_NO_THROW(cluster::Cluster cl(cfg)) << "iteration " << iter;
    }
}

TEST(BuilderPropertyTest, EveryNonFiniteFloatFieldThrowsAtBuildTime)
{
    // Exhaustive over the floating-point config surface: each field
    // set to NaN, +inf and -inf in turn, everything else valid. A
    // range check written as `x < lo` lets NaN through; the
    // validators must reject all three values.
    ASSERT_NO_THROW(coloBase().build());
    ASSERT_NO_THROW(clusterBase().build());

    for (double bad : kNonFinite) {
        admission::AdmissionConfig adm_template;
        const std::size_t n_adm = floatFields(adm_template).size();
        for (std::size_t f = 0; f < n_adm; ++f) {
            admission::AdmissionConfig adm;
            adm.enabled = true;
            *floatFields(adm)[f] = bad;
            EXPECT_THROW(coloBase().admission(adm).build(), util::FatalError)
                << "admission field " << f << " = " << bad;
            EXPECT_THROW(clusterBase().admission(adm).build(),
                         util::FatalError)
                << "cluster admission field " << f << " = " << bad;
        }
        budget::BudgetConfig bud_template;
        const std::size_t n_bud = floatFields(bud_template).size();
        for (std::size_t f = 0; f < n_bud; ++f) {
            budget::BudgetConfig bud;
            bud.enabled = true;
            *floatFields(bud)[f] = bad;
            EXPECT_THROW(clusterBase().budget(bud).build(), util::FatalError)
                << "budget field " << f << " = " << bad;
        }
        EXPECT_THROW(coloBase().slackThreshold(bad).build(), util::FatalError)
            << "slack threshold " << bad;
        EXPECT_THROW(clusterBase().slackThreshold(bad).build(),
                     util::FatalError)
            << "cluster slack threshold " << bad;
        colo::ConfigBuilder bad_load = coloBase();
        bad_load.service(services::ServiceKind::Nginx,
                         colo::Scenario::constant(bad));
        EXPECT_THROW(bad_load.build(), util::FatalError)
            << "scenario load " << bad;
        cluster::ClusterConfigBuilder bad_peak = clusterBase();
        bad_peak.serviceOnAll(services::ServiceKind::Nginx,
                              colo::Scenario::step(0.5, bad, 10 * kS));
        EXPECT_THROW(bad_peak.build(), util::FatalError)
            << "cluster scenario peak load " << bad;
    }
}

TEST(BuilderPropertyTest, BadTimingFailsAlikeOnBothLayers)
{
    // Both layers run one engine-knob validator, so a bad timing knob
    // must fail with the same message through either builder.
    const auto expect_same_error = [](const char *label, auto set) {
        colo::ConfigBuilder colo_builder = coloBase();
        cluster::ClusterConfigBuilder cluster_builder = clusterBase();
        set(colo_builder);
        set(cluster_builder);
        const std::string colo_msg = buildError(colo_builder);
        EXPECT_FALSE(colo_msg.empty()) << label << " must throw";
        EXPECT_EQ(colo_msg, buildError(cluster_builder)) << label;
    };
    expect_same_error("tick(0)", [](auto &b) { b.tick(0); });
    expect_same_error("decisionInterval(0)",
                      [](auto &b) { b.decisionInterval(0); });
    expect_same_error("decision interval shorter than the tick", [](auto &b) {
        b.tick(10 * sim::kMillisecond).decisionInterval(sim::kMillisecond);
    });
    expect_same_error("maxDuration(0)", [](auto &b) { b.maxDuration(0); });
}

TEST(BuilderPropertyTest, AppListBuildsAlikeOnBothLayers)
{
    // Both builders share one set of app-list setters, so the same
    // app()/apps()/seed() calls must build the same apps, starting
    // variants and seed through either.
    const auto build_both = [](const char *label, auto set) {
        colo::ConfigBuilder colo_builder = coloBase();
        cluster::ClusterConfigBuilder cluster_builder = clusterBase();
        set(colo_builder);
        set(cluster_builder);
        const colo::ColoConfig colo_cfg = colo_builder.build();
        const cluster::ClusterConfig cluster_cfg = cluster_builder.build();
        EXPECT_EQ(colo_cfg.apps, cluster_cfg.apps) << label;
        EXPECT_EQ(colo_cfg.initialVariants, cluster_cfg.initialVariants)
            << label;
        EXPECT_EQ(colo_cfg.seed, cluster_cfg.seed) << label;
        return colo_cfg;
    };

    // No variant pinned: the list stays empty, as in a hand-written
    // config.
    const colo::ColoConfig precise = build_both("apps() only", [](auto &b) {
        b.apps({"raytrace", "kmeans"}).seed(7);
    });
    EXPECT_EQ(precise.apps,
              (std::vector<std::string>{"canneal", "raytrace", "kmeans"}));
    EXPECT_TRUE(precise.initialVariants.empty());
    EXPECT_EQ(precise.seed, 7u);

    // One pinned variant keeps the whole list, precise apps as 0.
    const colo::ColoConfig pinned =
        build_both("one variant pinned", [](auto &b) {
            b.app("raytrace", 1).apps({"kmeans"}).seed(9);
        });
    EXPECT_EQ(pinned.initialVariants, (std::vector<int>{0, 1, 0}));
    EXPECT_EQ(pinned.seed, 9u);
}

TEST(BuilderPropertyTest, RandomBudgetPolicyTyposThrow)
{
    // Every valid name parses; every mutation of one (and every
    // random alphanumeric string) is a FatalError, never a silent
    // fallback policy.
    for (auto policy :
         {budget::BudgetPolicy::Uniform, budget::BudgetPolicy::Proportional,
          budget::BudgetPolicy::Learned})
        EXPECT_EQ(budget::parsePolicy(budget::policyName(policy)), policy);

    util::SplitMix64 sm(0xB06E7u);
    const std::vector<std::string> names = {"uniform", "proportional",
                                            "learned"};
    for (int iter = 0; iter < 60; ++iter) {
        std::string typo = names[sm.next() % names.size()];
        switch (sm.next() % 4) {
            case 0: // drop a character
                typo.erase(sm.next() % typo.size(), 1);
                break;
            case 1: // mutate a character
                typo[sm.next() % typo.size()] =
                    static_cast<char>('a' + sm.next() % 26);
                break;
            case 2: // wrong case on a character
                typo[sm.next() % typo.size()] = static_cast<char>(
                    std::toupper(typo[sm.next() % typo.size()]));
                break;
            default: // trailing garbage
                typo += static_cast<char>('a' + sm.next() % 26);
                break;
        }
        if (typo == "uniform" || typo == "proportional" || typo == "learned")
            continue; // the mutation happened to be a no-op
        EXPECT_THROW(budget::parsePolicy(typo), util::FatalError)
            << "typo '" << typo << "' (iteration " << iter
            << ") must not parse";
    }
}

} // namespace
