/**
 * @file
 * Tick-loop performance harness: the repo's tracked perf trajectory.
 *
 * Runs a small set of pinned configurations spanning the engine's
 * hot-path regimes — the paper's single-service colocation (fig5
 * shape), a wide 8-tenant flash-crowd box, an admission-enabled
 * front-end, and a 3-node cluster — and reports wall time plus
 * node-ticks and samples per second for each. Results are written as
 * `BENCH_tick.json` (repo root when run from there; `--out` to
 * override) so every PR can compare against the previous trajectory
 * point.
 *
 * The configurations are deliberately frozen: changing them resets
 * the trajectory. Optimization PRs must keep each config's *output*
 * byte-identical (see the regression suites) while moving wall time;
 * this harness only measures, it does not validate.
 *
 * Every row counts its work in the same two units: executed
 * node-ticks and sampled request latencies, the folded
 * `engine.ticks` and `engine.samples` counters of one untimed
 * obs-enabled pass per config (apps may finish before maxDuration,
 * and a cluster's engines are private). Both counts are
 * deterministic; ticks_per_sec and samples_per_sec divide them by the
 * best-of-N wall time. The same pass's phase timers give each row its
 * wall-time split (phase_prelude_s, phase_tenants_s, phase_tasks_s,
 * phase_interval_s, summed over a cluster's nodes) and
 * interval_share, the interval close's fraction of their sum; these
 * are obs-on wall times, noisy like every timing field.
 *
 * Usage: perf_tick [--quick] [--reps N] [--out FILE]
 *                  [--fast-sampling]
 *                  [--metrics-summary] [--metrics-out FILE]
 *   --quick   one repetition per config (CI smoke; timings noisy)
 *   --reps N  repetitions per config (default 3); best-of-N is
 *             reported to damp scheduler noise
 *   --out F   JSON output path (default BENCH_tick.json)
 *   --fast-sampling   adds a <config>@fast row per config
 *             (quantile-table samplers). NOT byte-identical —
 *             excluded from every golden; tracked here purely as a
 *             wall-clock point.
 *   --metrics-summary   after the timing reps, run each base config
 *             once more with the observability registry enabled,
 *             print its metrics table, and write the per-config
 *             exports as a metrics JSON. The extra passes are
 *             separate from the timed reps, so BENCH_tick.json rows
 *             are unaffected. scripts/check_bench_schema.py validates
 *             the file: deterministic values hard-fail on drift,
 *             wall_time values warn only.
 *   --metrics-out F     metrics JSON path (default metrics.json;
 *             implies --metrics-summary)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "obs/metrics.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;

/** Deterministic work of one config: node-ticks and samples. */
struct Work
{
    std::uint64_t ticks = 0;
    std::uint64_t samples = 0;
};

/** The work counters of an obs-enabled run's folded snapshot. */
Work
workOf(const obs::MetricsSnapshot &snap)
{
    const obs::MetricValue *ticks = snap.find("engine.ticks");
    const obs::MetricValue *samples = snap.find("engine.samples");
    return {ticks ? ticks->count : 0, samples ? samples->count : 0};
}

/** Engine wall time per tick phase, in seconds (obs-on pass). */
struct Phases
{
    double prelude = 0.0;
    double tenants = 0.0;
    double tasks = 0.0;
    double interval = 0.0;

    /** The interval close's share of the four phases. */
    double intervalShare() const
    {
        const double total = prelude + tenants + tasks + interval;
        return total > 0.0 ? interval / total : 0.0;
    }
};

/** The phase timers of an obs-enabled run's folded snapshot. */
Phases
phasesOf(const obs::MetricsSnapshot &snap)
{
    const auto total = [&](const char *name) {
        const obs::MetricValue *v = snap.find(name);
        return v ? v->stat.sum() : 0.0;
    };
    return {total("phase.prelude_wall_s"), total("phase.tenants_wall_s"),
            total("phase.tasks_wall_s"), total("phase.interval_wall_s")};
}

/** Wall-time measurement of one config set: best of `reps` runs. */
struct Measurement
{
    std::string name;
    std::string description;
    double wallSeconds = 0.0;
    Work work;
    Phases phases;
    bool fastSampling = false;

    double perSec(std::uint64_t count) const
    {
        return wallSeconds > 0.0 ? static_cast<double>(count) / wallSeconds
                                 : 0.0;
    }
    double ticksPerSec() const { return perSec(work.ticks); }
    double samplesPerSec() const { return perSec(work.samples); }
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Single-engine config set, timed with the registry off. The work
 * and the phase split come from one untimed obs-enabled run (the
 * registry leaves simulated outputs unchanged).
 */
Measurement
runEngineSet(const std::string &name, const std::string &description,
             const colo::ColoConfig &cfg, int reps)
{
    Measurement m;
    m.name = name;
    m.description = description;
    m.fastSampling = cfg.fastSampling;
    colo::ColoConfig counted = cfg;
    counted.observability.metrics = true;
    const obs::MetricsSnapshot snap = colo::Engine(counted).run().metrics;
    m.work = workOf(snap);
    m.phases = phasesOf(snap);
    for (int r = 0; r < reps; ++r) {
        colo::Engine engine(cfg);
        const double t0 = now();
        engine.run();
        const double dt = now() - t0;
        if (r == 0 || dt < m.wallSeconds)
            m.wallSeconds = dt;
    }
    return m;
}

/** Cluster config set, counted and timed like runEngineSet. */
Measurement
runClusterSet(const std::string &name,
              const std::string &description,
              const cluster::ClusterConfig &cfg, int reps)
{
    Measurement m;
    m.name = name;
    m.description = description;
    m.fastSampling = cfg.fastSampling;
    cluster::ClusterConfig counted = cfg;
    counted.observability.metrics = true;
    const obs::MetricsSnapshot snap =
        cluster::Cluster(counted).run().metrics;
    m.work = workOf(snap);
    m.phases = phasesOf(snap);
    for (int r = 0; r < reps; ++r) {
        cluster::Cluster c(cfg);
        const double t0 = now();
        c.run();
        const double dt = now() - t0;
        if (r == 0 || dt < m.wallSeconds)
            m.wallSeconds = dt;
    }
    return m;
}

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

void
writeJson(const std::string &path,
          const std::vector<Measurement> &results, int reps)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"perf_tick\",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Measurement &m = results[i];
        out << "    {\n"
            << "      \"name\": \"" << m.name << "\",\n"
            << "      \"description\": \"" << m.description << "\",\n"
            << "      \"fast_sampling\": "
            << (m.fastSampling ? "true" : "false") << ",\n"
            << "      \"wall_s\": " << m.wallSeconds << ",\n"
            << "      \"ticks\": " << m.work.ticks << ",\n"
            << "      \"samples\": " << m.work.samples << ",\n"
            << "      \"ticks_per_sec\": " << m.ticksPerSec() << ",\n"
            << "      \"samples_per_sec\": " << m.samplesPerSec() << ",\n"
            << "      \"phase_prelude_s\": " << m.phases.prelude << ",\n"
            << "      \"phase_tenants_s\": " << m.phases.tenants << ",\n"
            << "      \"phase_tasks_s\": " << m.phases.tasks << ",\n"
            << "      \"phase_interval_s\": " << m.phases.interval << ",\n"
            << "      \"interval_share\": " << m.phases.intervalShare() << "\n"
            << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
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
void
writeMetricsJsonFile(const std::string &path,
                     const std::vector<MetricsRun> &runs)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return;
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
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = 3;
    std::string out_path = "BENCH_tick.json";
    bool fast_axis = false;
    bool metrics_summary = false;
    std::string metrics_out = "metrics.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            reps = 1;
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--fast-sampling") {
            fast_axis = true;
        } else if (arg == "--metrics-summary") {
            metrics_summary = true;
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
            metrics_summary = true;
        } else {
            std::cerr << "usage: perf_tick [--quick] [--reps N] "
                         "[--out FILE] [--fast-sampling] "
                         "[--metrics-summary] [--metrics-out FILE]\n";
            return 2;
        }
    }

    std::cout << "=== perf_tick: tick-loop performance trajectory ("
              << reps << " rep" << (reps > 1 ? "s" : "")
              << ", best-of) ===\n\n";

    struct EngineBench
    {
        std::string name;
        std::string description;
        colo::ColoConfig cfg;
    };
    const std::vector<EngineBench> engine_benches = {
        {"fig5_single_service",
         "memcached + canneal, Pliant, seed 31 (fig5 cell)",
         fig5Config()},
        {"flash_crowd_8_services",
         "8 tenants (2 flash-crowded) + 2 apps, Pliant, 120 s",
         flashCrowd8Config()},
        {"admission_qos_shed",
         "2 tenants, QosShed + adaptive batching, flash 1.15, 120 s",
         admissionConfig()},
    };
    const cluster::ClusterConfig cluster_base = cluster3Config();
    const std::string cluster_description =
        "3 nodes x (memcached + nginx) + 6 apps, QoS-aware, 90 s";

    std::vector<Measurement> results;
    for (const EngineBench &b : engine_benches) {
        results.push_back(
            runEngineSet(b.name, b.description, b.cfg, reps));
        if (fast_axis) {
            colo::ColoConfig cfg = b.cfg;
            cfg.fastSampling = true;
            results.push_back(runEngineSet(b.name + "@fast",
                                           b.description, cfg, reps));
        }
    }
    results.push_back(runClusterSet(
        "cluster_3_node", cluster_description, cluster_base, reps));
    if (fast_axis) {
        cluster::ClusterConfig cfg = cluster_base;
        cfg.fastSampling = true;
        results.push_back(runClusterSet(
            "cluster_3_node@fast", cluster_description, cfg, reps));
    }

    util::TextTable t({"config", "wall s", "ticks", "ticks/s", "samples/s"});
    for (const Measurement &m : results)
        t.addRow({m.name, util::fmt(m.wallSeconds, 3),
                  std::to_string(m.work.ticks),
                  util::fmt(m.ticksPerSec() / 1e3, 1) + "k",
                  util::fmt(m.samplesPerSec() / 1e6, 2) + "M"});
    t.print(std::cout);

    writeJson(out_path, results, reps);
    std::cout << "\nwrote " << out_path << "\n";

    if (metrics_summary) {
        // Obs-enabled passes run after (and separate from) the timed
        // reps, so the timing rows above never pay for the registry;
        // one pass per base config.
        std::vector<MetricsRun> mruns;
        for (const EngineBench &b : engine_benches) {
            colo::ColoConfig cfg = b.cfg;
            cfg.observability.metrics = true;
            colo::Engine engine(cfg);
            mruns.push_back({b.name, engine.run().metrics});
        }
        {
            cluster::ClusterConfig cfg = cluster_base;
            cfg.observability.metrics = true;
            cluster::Cluster c(cfg);
            mruns.push_back({"cluster_3_node", c.run().metrics});
        }
        for (const MetricsRun &mr : mruns) {
            std::cout << "\n--- metrics: " << mr.name << " ---\n";
            obs::metricsTable(mr.snap).print(std::cout);
        }
        writeMetricsJsonFile(metrics_out, mruns);
        std::cout << "\nwrote " << metrics_out << "\n";
    }
    return 0;
}
