/**
 * @file
 * Deterministic metrics pin: writes the export that the committed
 * `BENCH_metrics.json` holds.
 *
 * Runs four frozen configurations spanning the engine's hot-path
 * regimes — the paper's single-service colocation (fig5 shape), a
 * wide 8-tenant flash-crowd box, an admission-enabled front-end, and
 * a 3-node cluster — once each with the observability registry on,
 * prints each config's metrics table, and writes the per-config
 * `pliant-metrics-v1` exports as one `perf_tick_metrics` JSON.
 * scripts/check_bench_schema.py diffs that file against
 * `BENCH_metrics.json`: every `deterministic` value (node-ticks,
 * samples, interval and QoS-verdict counts, decision mix, interval-p99
 * histogram, admission and budget stats) must match exactly, while
 * `wall_time` values (phase timers, pool stats) warn only.
 *
 * The configurations are frozen: changing one moves the pinned
 * values. This tool times nothing; the repository benchmark
 * (perfbench/) measures wall-clock speed.
 *
 * Usage: perf_tick [--metrics-out FILE]   (default metrics.json)
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "obs/metrics.hh"

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;

/** The paper's fig5 cell shape: one memcached, one app, Pliant. */
colo::ColoConfig
fig5Config()
{
    return colo::makeColoConfig(services::ServiceKind::Memcached,
                                {"canneal"},
                                core::RuntimeKind::Pliant, 31);
}

/** Eight tenants on one box, two hit by a flash crowd. */
colo::ColoConfig
flashCrowd8Config()
{
    std::vector<colo::ServiceSpec> specs;
    for (int i = 0; i < 8; ++i) {
        colo::ServiceSpec s;
        s.kind = i % 2 == 0 ? services::ServiceKind::Memcached
                            : services::ServiceKind::Nginx;
        s.name = (i % 2 == 0 ? "mc-" : "ngx-") + std::to_string(i);
        s.scenario = i < 2
            ? colo::Scenario::flashCrowd(0.45, 0.95, 20 * kS, 3 * kS,
                                         20 * kS, 10 * kS)
            : colo::Scenario::constant(0.45);
        specs.push_back(std::move(s));
    }
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        std::move(specs), {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, 71);
    cfg.maxDuration = 120 * kS;
    return cfg;
}

/** Admission front-end engaged: QoS-guided shed + adaptive batching. */
colo::ColoConfig
admissionConfig()
{
    std::vector<colo::ServiceSpec> specs(2);
    specs[0].kind = services::ServiceKind::Memcached;
    specs[0].scenario = colo::Scenario::flashCrowd(
        0.45, 1.15, 10 * kS, 3 * kS, 25 * kS, 5 * kS);
    specs[1].kind = services::ServiceKind::Nginx;
    specs[1].scenario = colo::Scenario::constant(0.45);
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        std::move(specs), {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, 71);
    cfg.admission.enabled = true;
    cfg.admission.policy = admission::AdmissionKind::QosShed;
    cfg.admission.batching = admission::BatchingKind::Adaptive;
    cfg.maxDuration = 120 * kS;
    return cfg;
}

/** The fig_cluster quick shape: 3 nodes, QoS-aware placement. */
cluster::ClusterConfig
cluster3Config()
{
    cluster::ClusterConfigBuilder builder;
    for (int n = 0; n < 3; ++n) {
        builder.node();
        if (n == 0) {
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::flashCrowd(
                                0.60, 0.95, 30 * kS, 3 * kS, 25 * kS,
                                10 * kS));
        } else {
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::constant(0.60));
        }
        builder.service(services::ServiceKind::Nginx,
                        colo::Scenario::constant(0.65));
    }
    builder
        .apps({"canneal", "bayesian", "snp", "kmeans", "raytrace",
               "streamcluster"})
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::QosAware)
        .epoch(5 * kS)
        .seed(71)
        .maxDuration(90 * kS);
    return builder.build();
}

/** One obs-enabled pass of a frozen config: name + folded snapshot. */
struct MetricsRun
{
    std::string name;
    obs::MetricsSnapshot snap;
};

/**
 * Metrics JSON: one `pliant-metrics-v1` export per frozen config,
 * wrapped so the schema checker can pair configs by name.
 */
bool
writeMetricsJsonFile(const std::string &path,
                     const std::vector<MetricsRun> &runs)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return false;
    }
    out << "{\n"
        << "  \"bench\": \"perf_tick_metrics\",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        out << "    {\"name\": \"" << runs[i].name
            << "\", \"export\": ";
        obs::writeMetricsJson(out, runs[i].snap);
        out << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string metrics_out = "metrics.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else {
            std::cerr << "usage: perf_tick [--metrics-out FILE]\n";
            return 2;
        }
    }

    std::vector<MetricsRun> runs;
    const auto run_engine = [&](const std::string &name,
                                colo::ColoConfig cfg) {
        cfg.observability.metrics = true;
        runs.push_back({name, colo::Engine(cfg).run().metrics});
    };
    run_engine("fig5_single_service", fig5Config());
    run_engine("flash_crowd_8_services", flashCrowd8Config());
    run_engine("admission_qos_shed", admissionConfig());
    cluster::ClusterConfig cluster_cfg = cluster3Config();
    cluster_cfg.observability.metrics = true;
    runs.push_back(
        {"cluster_3_node", cluster::Cluster(cluster_cfg).run().metrics});

    for (const MetricsRun &r : runs) {
        std::cout << "--- metrics: " << r.name << " ---\n";
        obs::metricsTable(r.snap).print(std::cout);
        std::cout << "\n";
    }
    if (!writeMetricsJsonFile(metrics_out, runs))
        return 1;
    std::cout << "wrote " << metrics_out << "\n";
    return 0;
}
