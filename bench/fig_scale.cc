/**
 * @file
 * Datacenter-scale streaming-aggregation sweep: 1000 nodes, 10k
 * interactive tenants, run with per-tick retention OFF so the only
 * per-node state the run accumulates is the online rollups
 * (RunningStats / P² sketches / reservoir — see util/stats.hh and
 * the colo::Engine streaming accumulators).
 *
 * The bench demonstrates two contracts at scale:
 *
 *  - memory: the sweep completes under a pinned RSS ceiling
 *    (--rss-limit-mb; CI pins it) because nothing retains the
 *    10k-tenant per-tick series;
 *  - determinism: the cluster rollups (worst service ratio, merged
 *    steady-state P² p99, QoS fractions, app outcomes) are exactly
 *    equal — double-for-double — between the serial run and an
 *    N-thread node pool.
 *
 * The configuration is frozen: the committed BENCH_scale.json is
 * generated with --quick (the CI shape) and the schema checker
 * hard-fails if any deterministic field moves. Work is counted in the
 * repository benchmark's units, executed node-ticks and sampled
 * request latencies: the folded `engine.ticks` and `engine.samples`
 * counters of one untimed obs-enabled pass, run after the timed cells
 * so their RSS readings do not include it.
 *
 * Usage: fig_scale [--quick] [--threads N] [--out FILE]
 *                  [--rss-limit-mb M]
 *   --quick          12 s simulated horizon (CI smoke; default 60 s)
 *   --threads N      node-worker threads of the pool row (default 4)
 *   --out F          JSON output path (default BENCH_scale.json)
 *   --rss-limit-mb M exit 1 if the process peak RSS exceeds M MB
 *                    after all runs (0 = no check)
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "obs/metrics.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;
constexpr std::size_t kNodes = 1000;
constexpr std::size_t kServicesPerNode = 10;

/** Process peak RSS in MB (Linux ru_maxrss is in KB). */
double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/**
 * The frozen 1000-node, 10k-tenant shape: every node hosts 5
 * memcached + 5 nginx tenants at staggered constant loads, a dozen
 * catalog apps land via static placement (so all but 12 nodes are
 * app-less — the streaming summary path at scale), and the tick
 * equals the decision interval so the horizon stays tractable.
 */
cluster::ClusterConfig
scaleConfig(sim::Time horizon, unsigned pool_threads)
{
    cluster::ClusterConfigBuilder builder;
    for (std::size_t n = 0; n < kNodes; ++n) {
        builder.node();
        for (std::size_t s = 0; s < kServicesPerNode; ++s) {
            const bool mc = s % 2 == 0;
            // Staggered by (node, slot) so the tenant mix is not
            // uniform across nodes, but stays a pure function of the
            // indices (determinism: no clock, no global RNG).
            const double load = 0.40 + 0.03 * static_cast<double>((n + s) % 5);
            builder.service((mc ? "mc-" : "ngx-") + std::to_string(s),
                            mc ? services::ServiceKind::Memcached
                               : services::ServiceKind::Nginx,
                            colo::Scenario::constant(load));
        }
    }
    builder
        .apps({"canneal", "streamcluster", "bayesian", "kmeans", "snp",
               "raytrace", "fluidanimate", "water_nsquared", "birch",
               "genenet", "semphy", "plsa"})
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::Static)
        .tick(1 * kS)
        .decisionInterval(1 * kS)
        .epoch(5 * kS)
        .maxDuration(horizon)
        .seed(97)
        .threads(pool_threads);
    return builder.build();
}

/** One matrix cell: a full cluster run plus its rollups. */
struct Measurement
{
    std::string name;
    std::string description;
    unsigned poolThreads = 1;
    double wallSeconds = 0.0;
    std::uint64_t ticks = 0;
    std::uint64_t samples = 0;
    double peakRssMbAfter = 0.0;
    cluster::ClusterResult result;
    bool identicalToSerial = true;

    double perSec(std::uint64_t count) const
    {
        return wallSeconds > 0.0 ? static_cast<double>(count) / wallSeconds
                                 : 0.0;
    }
    double ticksPerSec() const { return perSec(ticks); }
    double samplesPerSec() const { return perSec(samples); }
};

Measurement
runCell(const std::string &name, const std::string &description,
        sim::Time horizon, unsigned pool_threads)
{
    Measurement m;
    m.name = name;
    m.description = description;
    m.poolThreads = pool_threads;
    const cluster::ClusterConfig cfg = scaleConfig(horizon, pool_threads);
    cluster::Cluster c(cfg);
    const double t0 = now();
    m.result = c.run();
    m.wallSeconds = now() - t0;
    // ru_maxrss is a process-lifetime high-water mark: later cells
    // can only report >= earlier ones. The ceiling check uses the
    // final value, which is exactly the quantity CI pins.
    m.peakRssMbAfter = peakRssMb();
    return m;
}

/**
 * Executed node-ticks and samples of the scale shape: the folded
 * counters of one obs-enabled run (the registry leaves simulated
 * outputs unchanged, and the counts do not depend on pool threads).
 */
void
countWork(sim::Time horizon, unsigned pool_threads,
          std::vector<Measurement> &results)
{
    cluster::ClusterConfig cfg = scaleConfig(horizon, pool_threads);
    cfg.observability.metrics = true;
    const cluster::ClusterResult r = cluster::Cluster(cfg).run();
    const obs::MetricValue *ticks = r.metrics.find("engine.ticks");
    const obs::MetricValue *samples = r.metrics.find("engine.samples");
    for (Measurement &m : results) {
        m.ticks = ticks ? ticks->count : 0;
        m.samples = samples ? samples->count : 0;
    }
}

/**
 * Exact comparison of every scalar rollup against the serial cell.
 * These are doubles out of the simulation, not timings: the
 * streaming-aggregation contract is == at any thread count.
 */
bool
rollupsEqual(const cluster::ClusterResult &a, const cluster::ClusterResult &b)
{
    return a.worstServiceRatio == b.worstServiceRatio &&
           a.steadyP99Us == b.steadyP99Us &&
           a.meanQosMetFraction == b.meanQosMetFraction &&
           a.meanInaccuracy == b.meanInaccuracy &&
           a.meanRelativeExecTime == b.meanRelativeExecTime &&
           a.appsFinished == b.appsFinished && a.appsTotal == b.appsTotal &&
           a.totalMaxCoresReclaimed == b.totalMaxCoresReclaimed &&
           a.migrations.size() == b.migrations.size();
}

void
writeJson(const std::string &path, const std::vector<Measurement> &results)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"fig_scale\",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Measurement &m = results[i];
        out << "    {\n"
            << "      \"name\": \"" << m.name << "\",\n"
            << "      \"description\": \"" << m.description << "\",\n"
            << "      \"nodes\": " << kNodes << ",\n"
            << "      \"tenants\": " << kNodes * kServicesPerNode << ",\n"
            << "      \"pool_threads\": " << m.poolThreads << ",\n"
            << "      \"ticks\": " << m.ticks << ",\n"
            << "      \"samples\": " << m.samples << ",\n"
            << "      \"steady_p99_us\": " << m.result.steadyP99Us << ",\n"
            << "      \"worst_ratio\": " << m.result.worstServiceRatio << ",\n"
            << "      \"identical_to_serial\": "
            << (m.identicalToSerial ? "true" : "false") << ",\n"
            << "      \"wall_s\": " << m.wallSeconds << ",\n"
            << "      \"ticks_per_sec\": " << m.ticksPerSec() << ",\n"
            << "      \"samples_per_sec\": " << m.samplesPerSec() << ",\n"
            << "      \"peak_rss_mb\": " << m.peakRssMbAfter << "\n"
            << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    sim::Time horizon = 60 * kS;
    unsigned threads = 4;
    double rss_limit_mb = 0.0;
    std::string out_path = "BENCH_scale.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            horizon = 12 * kS;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads =
                std::max(2U, static_cast<unsigned>(std::atoi(argv[++i])));
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--rss-limit-mb" && i + 1 < argc) {
            rss_limit_mb = std::atof(argv[++i]);
        } else {
            std::cerr << "usage: fig_scale [--quick] [--threads N] "
                         "[--out FILE] [--rss-limit-mb M]\n";
            return 2;
        }
    }

    std::cout << "=== fig_scale: " << kNodes << "-node, "
              << kNodes * kServicesPerNode
              << "-tenant streaming-aggregation sweep ===\n\n";

    const std::string shape = std::to_string(kNodes) + " nodes x " +
                              std::to_string(kServicesPerNode) +
                              " tenants, 12 static apps, streaming rollups";
    std::vector<Measurement> results;
    results.push_back(runCell("scale_serial", shape + ", serial", horizon, 1));
    results.push_back(
        runCell("scale_pool", shape + ", node pool", horizon, threads));
    for (Measurement &m : results)
        m.identicalToSerial = rollupsEqual(m.result, results.front().result);
    countWork(horizon, threads, results);

    util::TextTable t({"config", "pool", "wall s", "ticks/s", "samples/s",
                       "steady p99", "worst ratio", "rss MB", "== serial"});
    for (const Measurement &m : results)
        t.addRow({m.name, std::to_string(m.poolThreads),
                  util::fmt(m.wallSeconds, 2),
                  util::fmt(m.ticksPerSec() / 1e3, 1) + "k",
                  util::fmt(m.samplesPerSec() / 1e6, 2) + "M",
                  util::fmt(m.result.steadyP99Us, 1),
                  util::fmt(m.result.worstServiceRatio, 4),
                  util::fmt(m.peakRssMbAfter, 1),
                  m.identicalToSerial ? "yes" : "NO"});
    t.print(std::cout);

    writeJson(out_path, results);
    std::cout << "\nwrote " << out_path << "\n";

    bool ok = true;
    for (const Measurement &m : results)
        if (!m.identicalToSerial) {
            std::cerr << "FAIL: " << m.name
                      << " rollups differ from scale_serial — the "
                         "streaming aggregation is not "
                         "thread-count-invariant\n";
            ok = false;
        }
    const double peak = peakRssMb();
    if (rss_limit_mb > 0.0 && peak > rss_limit_mb) {
        std::cerr << "FAIL: peak RSS " << peak << " MB exceeds the "
                  << rss_limit_mb << " MB ceiling\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
