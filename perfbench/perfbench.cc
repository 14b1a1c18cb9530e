/**
 * @file
 * The repository benchmark harness (see perfbench/README.md).
 *
 * Runs one workload closed-loop — one experiment at a time, from this
 * one process — for a fixed host-time budget, then writes everything
 * run.py needs to report it:
 *
 *   <out>/result.json  end-to-end and per-layer metrics, per-experiment
 *                      output digests, and every failed check
 *   <out>/trace.json   Chrome trace of the benchmark's own spans
 *                      (workload > experiment > ctor / interval advance
 *                      / finalize / Cluster::run), traced reps only
 *   <out>/layers.json  the per-layer metrics on their own
 *
 * Layers are measured only from outside: the benchmark times its own
 * calls into colo::Engine and cluster::Cluster and reads the metrics
 * export obs already produces. Timed reps use the default knobs (one
 * engine lane, exact sampling, obs off); traced reps turn the obs
 * metrics registry on and drive single-node engines one decision
 * interval per advanceUntil() call.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --out DIR
 */

#include <time.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "approx/profile.hh"
#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "driver/sweep.hh"
#include "obs/metrics.hh"

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU time (all threads), seconds. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** num / den, or 0 when den is 0 (nothing of that kind ran). */
double
share(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nearest-rank percentile (q in [0, 100]) of a sample. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

/**
 * What probeHostSpeed() takes on the reference host (4-vCPU Xeon VM
 * at 2.1 GHz). Timed results are scaled by reference / measured probe
 * time, so they read as seconds on that host at its usual speed.
 */
constexpr double kReferenceProbeS = 0.009;

/**
 * Host-speed probe: a fixed kernel shaped like the engine's hot path
 * (lognormal draws through log/sqrt/cos/sin/exp, then a sort of the
 * window for its p99). It is compiled from this file alone, so no
 * change under src/ moves it. Returns the median of three passes, in
 * seconds.
 */
double
probeOnce()
{
    constexpr std::size_t kWindow = 4096;
    constexpr double kTwoPi = 6.283185307179586;
    std::vector<double> window(kWindow), sorted(kWindow);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    auto uniform = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return (static_cast<double>(x >> 11) + 0.5) * 0x1.0p-53;
    };
    double sink = 0.0;
    std::vector<double> passes;
    for (int p = 0; p < 3; ++p) {
        const double t0 = wallNow();
        for (int w = 0; w < 24; ++w) {
            for (std::size_t i = 0; i < kWindow; i += 2) {
                const double r = std::sqrt(-2.0 * std::log(uniform()));
                const double a = kTwoPi * uniform();
                window[i] = std::exp(0.5 * r * std::cos(a));
                window[i + 1] = std::exp(0.5 * r * std::sin(a));
            }
            sorted = window;
            std::sort(sorted.begin(), sorted.end());
            sink += sorted[kWindow * 99 / 100];
        }
        passes.push_back(wallNow() - t0);
    }
    volatile double keep = sink;
    (void)keep;
    return median(passes);
}

/**
 * The probe on `threads` threads at once (the load shape of a
 * multi-threaded workload); mean of their times.
 */
double
probeHostSpeed(unsigned threads)
{
    std::vector<double> times(threads);
    std::vector<std::thread> helpers;
    for (unsigned t = 1; t < threads; ++t)
        helpers.emplace_back([&times, t] { times[t] = probeOnce(); });
    times[0] = probeOnce();
    for (auto &h : helpers)
        h.join();
    double sum = 0.0;
    for (double v : times)
        sum += v;
    return sum / static_cast<double>(threads);
}

/**
 * This process's peak resident set, MB. VmHWM belongs to the address
 * space, so unlike getrusage's ru_maxrss it does not inherit the
 * peak of the process that exec'd this one.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Spans: the benchmark's own, kept in memory, written at the end.

class SpanLog
{
  public:
    SpanLog() : origin(std::chrono::steady_clock::now()) {}

    int
    begin(const char *name, int parent)
    {
        const int id = static_cast<int>(starts.size());
        const double ts = nowUs();
        starts.push_back(ts);
        events.push_back({'B', name, ts, id, parent});
        return id;
    }

    /** Close span `id`; returns its duration in µs. */
    double
    end(int id, const char *name, int parent)
    {
        const double ts = nowUs();
        events.push_back({'E', name, ts, id, parent});
        return ts - starts[static_cast<std::size_t>(id)];
    }

    /** Chrome trace_event JSON array; one track, properly nested. */
    void
    write(std::ostream &os) const
    {
        os.precision(17);
        os << "[\n{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, "
              "\"pid\": 0, \"tid\": 0, \"args\": {\"name\": "
              "\"perfbench\"}}";
        for (const Event &e : events)
            os << ",\n{\"name\": \"" << e.name << "\", \"ph\": \""
               << e.ph << "\", \"ts\": " << e.tsUs
               << ", \"pid\": 0, \"tid\": 0, \"args\": {\"id\": " << e.id
               << ", \"parent\": " << e.parent << "}}";
        os << "\n]\n";
    }

  private:
    struct Event
    {
        char ph;
        const char *name;
        double tsUs;
        int id;
        int parent;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - origin)
            .count();
    }

    std::chrono::steady_clock::time_point origin;
    std::vector<double> starts;
    std::vector<Event> events;
};

// ---------------------------------------------------------------------
// Workloads.

const services::ServiceKind kPaperServices[] = {
    services::ServiceKind::Nginx,
    services::ServiceKind::Memcached,
    services::ServiceKind::MongoDb,
};

constexpr std::size_t kCrowdNodes = 24;
constexpr std::size_t kClusterNodes = 32;

bool
isClusterWorkload(const std::string &w)
{
    return w == "cluster_budget";
}

std::size_t
nodeExperimentCount(const std::string &w)
{
    if (w == "node_paper")
        return 3 * approx::catalog().size();
    if (w == "node_crowd_admission")
        return kCrowdNodes;
    return 0;
}

std::string
nodeLabel(const std::string &w, std::size_t i)
{
    const auto &cat = approx::catalog();
    if (w == "node_paper")
        return services::serviceName(kPaperServices[i / cat.size()]) +
               "/" + cat[i % cat.size()].name;
    return "node" + std::to_string(i);
}

/**
 * node_paper: the Fig. 5 matrix cell i (service x catalog app), Pliant
 * at load 0.78. node_crowd_admission: dense node i — 8 tenants
 * (memcached/nginx/mongodb round-robin, the first two flash-crowded
 * past saturation from 5 s until after the apps finish), catalog apps
 * 2i and 2i+1 (mod 24), QosShed + adaptive batching, 120 s horizon.
 * Whether a crowded tenant's tail blows up is close to a coin flip
 * per node, so the workload runs 24 nodes for a steady mean. The seed
 * reaches the program only as the per-experiment engine seed.
 */
colo::ColoConfig
nodeConfig(const std::string &w, std::uint64_t seed, std::size_t i)
{
    const auto &cat = approx::catalog();
    const std::uint64_t s = driver::taskSeed(seed, i);
    if (w == "node_paper")
        return colo::makeColoConfig(kPaperServices[i / cat.size()],
                                    {cat[i % cat.size()].name},
                                    core::RuntimeKind::Pliant, s, 0.78);

    std::vector<colo::ServiceSpec> specs;
    static const char *prefix[] = {"ngx-", "mc-", "mongo-"};
    for (int k = 0; k < 8; ++k) {
        colo::ServiceSpec spec;
        spec.kind = kPaperServices[(k + 1) % 3];
        spec.name = prefix[(k + 1) % 3] + std::to_string(k);
        spec.scenario = k < 2
            ? colo::Scenario::flashCrowd(0.45, 1.15, 5 * kS, 3 * kS,
                                         30 * kS, 5 * kS)
            : colo::Scenario::constant(0.45);
        specs.push_back(std::move(spec));
    }
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        std::move(specs),
        {cat[(2 * i) % cat.size()].name,
         cat[(2 * i + 1) % cat.size()].name},
        core::RuntimeKind::Pliant, s);
    cfg.admission.enabled = true;
    cfg.admission.policy = admission::AdmissionKind::QosShed;
    cfg.admission.batching = admission::BatchingKind::Adaptive;
    cfg.maxDuration = 120 * kS;
    return cfg;
}

unsigned
clusterThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1U, 4U);
}

/**
 * cluster_budget: 32 nodes x (memcached + nginx) at the paper's load
 * 0.78, every 8th memcached flash-crowded; all 24 catalog apps placed
 * QoS-aware, QosShed admission, Proportional budgets, 5 s epochs,
 * 120 s horizon. At this load nearly every app approximates, so the
 * outcome means average over many apps rather than a lucky few.
 */
cluster::ClusterConfig
clusterConfig(std::uint64_t seed)
{
    cluster::ClusterConfigBuilder b;
    for (std::size_t n = 0; n < kClusterNodes; ++n) {
        b.node();
        b.service(services::ServiceKind::Memcached,
                  n % 8 == 0
                      ? colo::Scenario::flashCrowd(0.78, 1.15, 20 * kS,
                                                   3 * kS, 25 * kS,
                                                   10 * kS)
                      : colo::Scenario::constant(0.78));
        b.service(services::ServiceKind::Nginx,
                  colo::Scenario::constant(0.78));
    }
    b.apps(approx::catalogNames())
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::QosAware)
        .admission(admission::AdmissionKind::QosShed,
                   admission::BatchingKind::None)
        .budget(budget::BudgetPolicy::Proportional,
                0.04 * static_cast<double>(approx::catalog().size()),
                0.5 * static_cast<double>(kClusterNodes))
        .epoch(5 * kS)
        .maxDuration(120 * kS)
        .seed(seed)
        .threads(clusterThreads());
    return b.build();
}

// ---------------------------------------------------------------------
// Output digests and invariants.

/** Canonical, exact (hex-float) text of one experiment's outputs. */
class Canon
{
  public:
    void
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%a", v);
        os << key << '=' << buf << ';';
        if (!std::isfinite(v))
            errors.push_back(std::string(key) + " is not finite");
    }

    void
    frac(const char *key, double v)
    {
        num(key, v);
        if (!(v >= 0.0 && v <= 1.0))
            errors.push_back(std::string(key) + " outside [0,1]");
    }

    void
    text(const char *key, const std::string &v)
    {
        os << key << '=' << v << ';';
    }

    void
    integer(const char *key, long long v)
    {
        os << key << '=' << v << ';';
    }

    /** FNV-1a 64 of the canonical text, as 16 hex digits. */
    std::string
    digest() const
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (unsigned char c : os.str()) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

    std::vector<std::string> errors;

  private:
    std::ostringstream os;
};

/**
 * Simulated outcome sums behind the four outcome metrics. The worst
 * service is taken per node (one colocation) and averaged over nodes:
 * a maximum over the whole workload would follow a single outlier
 * seed.
 */
struct Outcomes
{
    double qosMetSum = 0.0;
    std::size_t services = 0;
    double worstRatioSum = 0.0;
    std::size_t nodes = 0;
    double inaccuracySum = 0.0;
    std::size_t apps = 0;
    double shedSum = 0.0;

    void
    add(const colo::ColoResult &r)
    {
        double worst = 0.0;
        for (const auto &svc : r.services) {
            qosMetSum += svc.qosMetFraction;
            shedSum += svc.shedFraction;
            worst = std::max(worst, svc.meanIntervalP99Us / svc.qosUs);
            ++services;
        }
        worstRatioSum += worst;
        ++nodes;
        for (const auto &app : r.apps) {
            inaccuracySum += app.inaccuracy;
            ++apps;
        }
    }
};

void
canonNode(Canon &c, const colo::ColoResult &r)
{
    for (const auto &svc : r.services) {
        c.text("svc", svc.name);
        c.num("qos_us", svc.qosUs);
        c.frac("qos_met", svc.qosMetFraction);
        c.num("mean_p99", svc.meanIntervalP99Us);
        c.num("steady_p99", svc.steadyP99Us);
        c.num("overall_p99", svc.overallP99Us);
        c.frac("shed", svc.shedFraction);
        c.num("queue_delay", svc.meanQueueDelayUs);
        if (!(svc.qosUs > 0.0))
            c.errors.push_back("service " + svc.name +
                               " has no QoS target");
    }
    for (const auto &app : r.apps) {
        c.text("app", app.name);
        c.integer("finished", app.finished ? 1 : 0);
        c.frac("inaccuracy", app.inaccuracy);
        c.num("rel_exec", app.relativeExecTime);
        c.integer("switches", app.switches);
    }
    c.num("budget_quality", r.budgetQualityUsed);
    c.num("budget_shed", r.budgetShedUsed);
}

/** Each name in `want` appears exactly once in `got`. */
void
checkAppsOnce(Canon &c, const std::vector<std::string> &want,
              const std::vector<std::string> &got)
{
    std::map<std::string, int> seen;
    for (const auto &a : got)
        ++seen[a];
    for (const auto &a : want)
        if (seen[a] != 1)
            c.errors.push_back("app " + a + " accounted " +
                               std::to_string(seen[a]) + " times");
    if (got.size() != want.size())
        c.errors.push_back("app count " + std::to_string(got.size()) +
                           " != " + std::to_string(want.size()));
}

Canon
checkNode(const colo::ColoConfig &cfg, const colo::ColoResult &r,
          std::uint64_t ticks)
{
    Canon c;
    canonNode(c, r);
    c.integer("ticks", static_cast<long long>(ticks));
    std::vector<std::string> got;
    for (const auto &app : r.apps)
        got.push_back(app.name);
    checkAppsOnce(c, cfg.apps, got);
    if (r.services.size() != std::max<std::size_t>(cfg.services.size(), 1))
        c.errors.push_back("service count mismatch");
    return c;
}

Canon
checkCluster(const cluster::ClusterConfig &cfg,
             const cluster::ClusterResult &r)
{
    Canon c;
    std::vector<std::string> got;
    for (const auto &node : r.nodes) {
        c.text("node", node.name);
        canonNode(c, node.result);
        for (const auto &app : node.result.apps)
            got.push_back(app.name);
        if (node.result.services.empty())
            c.errors.push_back("node " + node.name + " lost its services");
    }
    for (const auto &m : r.migrations) {
        c.integer("mig_t", static_cast<long long>(m.t));
        c.text("mig_app", m.app);
        c.integer("mig_from", static_cast<long long>(m.from));
        c.integer("mig_to", static_cast<long long>(m.to));
        if (std::find(cfg.apps.begin(), cfg.apps.end(), m.app) ==
            cfg.apps.end())
            c.errors.push_back("migrated unknown app " + m.app);
    }
    c.num("cluster_budget_quality", r.budgetQualityUsed);
    c.num("cluster_budget_shed", r.budgetShedUsed);
    c.frac("cluster_qos_met", r.meanQosMetFraction);
    c.frac("cluster_inaccuracy", r.meanInaccuracy);
    checkAppsOnce(c, cfg.apps, got);
    if (r.nodes.size() != cfg.nodes.size())
        c.errors.push_back("node count mismatch");
    return c;
}

// ---------------------------------------------------------------------
// The run.

struct Rep
{
    bool traced = false;
    double setupS = 0.0; ///< median of the set-up passes after it
    double runS = 0.0;
    double cpuS = 0.0;
};

/** Per-experiment bookkeeping across every execution in the run. */
struct ExpRecord
{
    std::string label;
    std::string digest; ///< first execution's digest
    int runs = 0;
    int failedRuns = 0;
    std::vector<std::string> errors;
    std::uint64_t ticks = 0;         ///< executed ticks, from the clock
    std::uint64_t registryTicks = 0; ///< engine.ticks, traced run
};

/** Per-layer samples and counts gathered by traced reps. */
struct LayerData
{
    std::vector<double> engineCtorUs;
    std::vector<double> advanceUs;
    std::vector<double> finalizeUs;
    std::vector<double> clusterCtorUs;
    std::vector<double> clusterRunS;
    std::vector<double> phasePrelude, phaseTenants, phaseTasks,
        phaseInterval;
    std::vector<double> epochWallTotal, epochWallMax, poolJobWallMean,
        poolIdle;
    obs::MetricsSnapshot snap; ///< first traced rep, all experiments
};

class Bench
{
  public:
    Bench(std::string workload, std::uint64_t seed)
        : w(std::move(workload)), seed(seed),
          probeThreads(isClusterWorkload(w) ? clusterThreads() : 1)
    {
        probes.push_back(probeHostSpeed(probeThreads));
    }

    /** One execution of every experiment of the workload. */
    void
    rep(bool traced)
    {
        Rep r;
        r.traced = traced;
        int ws = traced ? spans.begin("workload", -1) : -1;
        if (isClusterWorkload(w))
            clusterRep(r, ws);
        else
            nodeRep(r, ws);
        if (traced) {
            spans.end(ws, "workload", -1);
        } else {
            // Set-up is sub-millisecond, and right after a run it
            // mostly measures cold caches: time it in back-to-back
            // passes and keep their median.
            std::vector<double> passes;
            for (int k = 0; k < kSetupPasses; ++k)
                passes.push_back(setupPass());
            r.setupS = median(passes);
        }
        reps.push_back(r);
        probes.push_back(probeHostSpeed(probeThreads));
    }

    void writeResult(const std::string &dir, int trace_mode) const;

  private:
    static constexpr int kSetupPasses = 8;

    void nodeRep(Rep &r, int ws);
    void clusterRep(Rep &r, int ws);

    /** Build, validate and construct every experiment once; seconds. */
    double
    setupPass() const
    {
        if (isClusterWorkload(w)) {
            const double t0 = wallNow();
            const cluster::Cluster c(clusterConfig(seed));
            return wallNow() - t0;
        }
        double total = 0.0;
        for (std::size_t i = 0; i < nodeExperimentCount(w); ++i) {
            const double t0 = wallNow();
            const colo::ColoConfig cfg = nodeConfig(w, seed, i);
            colo::validateConfig(cfg);
            const colo::Engine engine(cfg);
            total += wallNow() - t0;
        }
        return total;
    }

    ExpRecord &
    exp(std::size_t i)
    {
        if (exps.size() <= i)
            exps.resize(i + 1);
        return exps[i];
    }

    void
    fail(std::size_t i, const std::string &why)
    {
        ExpRecord &e = exp(i);
        ++e.runs;
        ++e.failedRuns;
        e.errors.push_back(why);
    }

    /** Book one execution: invariants, then digest vs the first. */
    void
    record(std::size_t i, const Canon &c)
    {
        ExpRecord &e = exp(i);
        ++e.runs;
        const std::string d = c.digest();
        bool ok = c.errors.empty();
        for (const auto &err : c.errors)
            e.errors.push_back(err);
        if (e.digest.empty()) {
            e.digest = d;
        } else if (d != e.digest) {
            ok = false;
            e.errors.push_back("digest " + d + " differs from " +
                               e.digest + " of an earlier execution");
        }
        if (!ok)
            ++e.failedRuns;
    }

    void collectPhases(const obs::MetricsSnapshot &snap);

    std::string w;
    std::uint64_t seed;
    unsigned probeThreads;
    SpanLog spans;
    std::vector<Rep> reps;
    /** Host-speed probe before rep 0 and after every rep. */
    std::vector<double> probes;
    std::vector<ExpRecord> exps;
    Outcomes outcomes;
    bool outcomesDone = false;
    LayerData layers;
    bool layersDone = false;
};

const obs::MetricValue &
metric(const obs::MetricsSnapshot &snap, const std::string &name)
{
    static const obs::MetricValue none;
    const obs::MetricValue *m = snap.find(name);
    return m ? *m : none;
}

void
Bench::collectPhases(const obs::MetricsSnapshot &snap)
{
    layers.phasePrelude.push_back(
        metric(snap, "phase.prelude_wall_s").stat.sum());
    layers.phaseTenants.push_back(
        metric(snap, "phase.tenants_wall_s").stat.sum());
    layers.phaseTasks.push_back(
        metric(snap, "phase.tasks_wall_s").stat.sum());
    layers.phaseInterval.push_back(
        metric(snap, "phase.interval_wall_s").stat.sum());
    if (!layersDone) {
        layers.snap = snap;
        layersDone = true;
    }
}

void
Bench::nodeRep(Rep &r, int ws)
{
    const std::size_t n = nodeExperimentCount(w);
    obs::MetricsSnapshot repSnap;
    for (std::size_t i = 0; i < n; ++i) {
        const int es = r.traced ? spans.begin("experiment", ws) : -1;
        try {
            const int cs =
                r.traced ? spans.begin("engine.ctor", es) : -1;
            colo::ColoConfig cfg = nodeConfig(w, seed, i);
            cfg.observability.metrics = r.traced;
            colo::validateConfig(cfg);
            colo::Engine engine(cfg);
            if (r.traced)
                layers.engineCtorUs.push_back(
                    spans.end(cs, "engine.ctor", es));

            const double c0 = cpuNow();
            const double t0 = wallNow();
            colo::ColoResult res;
            if (r.traced) {
                sim::Time until = 0;
                while (!engine.done()) {
                    until = std::min(until + cfg.decisionInterval,
                                     cfg.maxDuration);
                    const int as =
                        spans.begin("engine.advance_interval", es);
                    engine.advanceUntil(until);
                    layers.advanceUs.push_back(
                        spans.end(as, "engine.advance_interval", es));
                }
                const int fs = spans.begin("engine.finalize", es);
                res = engine.finalize();
                layers.finalizeUs.push_back(
                    spans.end(fs, "engine.finalize", es));
            } else {
                engine.advanceUntil(cfg.maxDuration);
                res = engine.finalize();
            }
            r.runS += wallNow() - t0;
            r.cpuS += cpuNow() - c0;

            const std::uint64_t ticks =
                static_cast<std::uint64_t>(engine.now() / cfg.tick);
            ExpRecord &e = exp(i);
            e.label = nodeLabel(w, i);
            e.ticks = ticks;
            Canon check = checkNode(cfg, res, ticks);
            if (r.traced) {
                const std::uint64_t reg =
                    metric(res.metrics, "engine.ticks").count;
                e.registryTicks = reg;
                if (reg != ticks)
                    check.errors.push_back(
                        "executed ticks " + std::to_string(ticks) +
                        " != engine.ticks " + std::to_string(reg));
                repSnap.merge(res.metrics);
            }
            if (!outcomesDone)
                outcomes.add(res);
            record(i, check);
        } catch (const std::exception &e) {
            exp(i).label = nodeLabel(w, i);
            fail(i, std::string("threw: ") + e.what());
        }
        if (r.traced)
            spans.end(es, "experiment", ws);
    }
    outcomesDone = true;
    if (r.traced)
        collectPhases(repSnap);
}

void
Bench::clusterRep(Rep &r, int ws)
{
    const int es = r.traced ? spans.begin("experiment", ws) : -1;
    exp(0).label = "cluster";
    try {
        const int cs = r.traced ? spans.begin("cluster.ctor", es) : -1;
        cluster::ClusterConfig cfg = clusterConfig(seed);
        cfg.observability.metrics = r.traced;
        cluster::Cluster c(cfg);
        if (r.traced)
            layers.clusterCtorUs.push_back(
                spans.end(cs, "cluster.ctor", es));

        const int rs = r.traced ? spans.begin("cluster.run", es) : -1;
        const double c0 = cpuNow();
        const double t0 = wallNow();
        const cluster::ClusterResult res = c.run();
        r.runS = wallNow() - t0;
        r.cpuS = cpuNow() - c0;
        if (r.traced) {
            layers.clusterRunS.push_back(
                spans.end(rs, "cluster.run", es) * 1e-6);
            const obs::MetricsSnapshot &snap = res.metrics;
            // The cluster hides its engines' clocks, so its executed
            // node-ticks are the registry's engine.ticks.
            exp(0).registryTicks = metric(snap, "engine.ticks").count;
            exp(0).ticks = exp(0).registryTicks;
            const obs::MetricValue &ew =
                metric(snap, "cluster.epoch_wall_s");
            const double jobs = metric(snap, "pool.jobs_executed").value;
            const double jobMean =
                metric(snap, "pool.job_wall_mean_s").value;
            layers.epochWallTotal.push_back(ew.stat.sum());
            layers.epochWallMax.push_back(ew.stat.max());
            layers.poolJobWallMean.push_back(jobMean);
            const double capacity =
                static_cast<double>(cfg.threads) * ew.stat.sum();
            layers.poolIdle.push_back(
                capacity > 0.0 ? 1.0 - jobs * jobMean / capacity : 0.0);
            collectPhases(snap);
        }
        if (!outcomesDone) {
            for (const auto &node : res.nodes)
                outcomes.add(node.result);
            outcomesDone = true;
        }
        record(0, checkCluster(cfg, res));
    } catch (const std::exception &e) {
        fail(0, std::string("threw: ") + e.what());
    }
    if (r.traced)
        spans.end(es, "experiment", ws);
}

void
writeString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

using MetricList = std::vector<std::pair<std::string, double>>;

void
writeMetrics(std::ostream &os, const MetricList &ms)
{
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        os << (i ? ", " : "");
        writeString(os, ms[i].first);
        os << ": " << ms[i].second;
    }
    os << "}";
}

void
Bench::writeResult(const std::string &dir, int trace_mode) const
{
    // Host speed drifts by tens of percent over minutes on a shared
    // machine; every timed figure is scaled by the speed probed right
    // before and after its rep.
    std::vector<double> setup, run, cpu, trun, rawRun;
    for (std::size_t k = 1; k < reps.size(); ++k) { // rep 0 warms up
        const Rep &r = reps[k];
        const double scale =
            kReferenceProbeS / (0.5 * (probes[k] + probes[k + 1]));
        if (r.traced) {
            trun.push_back(r.runS * scale);
            continue;
        }
        setup.push_back(r.setupS * scale);
        run.push_back(r.runS * scale);
        cpu.push_back(r.cpuS * scale);
        rawRun.push_back(r.runS);
    }
    std::uint64_t ticks = 0;
    for (const auto &e : exps)
        ticks += e.ticks;
    const double nticks = static_cast<double>(ticks);
    const obs::MetricsSnapshot &snap = layers.snap;
    auto count = [&snap](const char *name) {
        return static_cast<double>(metric(snap, name).count);
    };
    const double samples = count("engine.samples");
    const double runMed = median(run);

    const Outcomes &o = outcomes;
    const double nsvc = static_cast<double>(o.services);
    const MetricList e2e = {
        {"node_ticks_per_s", share(nticks, runMed)},
        {"samples_per_s", share(samples, runMed)},
        {"cpu_us_per_node_tick", share(median(cpu) * 1e6, nticks)},
        {"setup_s", median(setup)},
        {"peak_rss_mb", peakRssMb()},
        {"qos_met_frac", share(o.qosMetSum, nsvc)},
        {"worst_p99_qos_ratio",
         share(o.worstRatioSum, static_cast<double>(o.nodes))},
        {"quality_loss_pct",
         share(100.0 * o.inaccuracySum, static_cast<double>(o.apps))},
        {"admitted_frac", 1.0 - share(o.shedSum, nsvc)},
    };

    // Tail: the highest of these percentiles with >= 10 samples beyond.
    const std::vector<double> &adv = layers.advanceUs;
    double tailPct = 50.0;
    for (double q : {90.0, 99.0, 99.9, 99.99})
        if (static_cast<double>(adv.size()) * (1.0 - q / 100.0) >= 10.0)
            tailPct = q;
    const double pre = median(layers.phasePrelude);
    const double ten = median(layers.phaseTenants);
    const double tas = median(layers.phaseTasks);
    const double itv = median(layers.phaseInterval);
    const double phaseSum = pre + ten + tas + itv;
    const double trunMed = median(trun);
    const MetricList perLayer = {
        {"bench.host_speed", share(kReferenceProbeS, median(probes))},
        {"bench.raw_node_ticks_per_s", share(nticks, median(rawRun))},
        {"colo.engine_ctor_us", median(layers.engineCtorUs)},
        {"cluster.ctor_us", median(layers.clusterCtorUs)},
        {"cluster.run_s", median(layers.clusterRunS)},
        {"colo.advance_interval_us_p50", percentile(adv, 50.0)},
        {"colo.advance_interval_us_tail", percentile(adv, tailPct)},
        {"colo.advance_interval_tail_pct", adv.empty() ? 0.0 : tailPct},
        {"colo.advance_interval_n", static_cast<double>(adv.size())},
        {"colo.finalize_us", median(layers.finalizeUs)},
        {"colo.phase.prelude_s", pre},
        {"colo.phase.tenants_s", ten},
        {"colo.phase.tasks_s", tas},
        {"colo.phase.interval_s", itv},
        {"colo.phase.interval_share", share(itv, phaseSum)},
        {"colo.ticks", count("engine.ticks")},
        {"services.samples", samples},
        {"core.actuated_interval_frac",
         share(count("engine.actuations"), count("engine.intervals"))},
        {"core.qos_violated_intervals",
         count("engine.qos_violated_intervals")},
        {"admission.gate_arms", metric(snap, "admission.gate_arms").value},
        {"admission.shed_fraction_mean",
         metric(snap, "admission.shed_fraction").stat.mean()},
        {"admission.queue_delay_us_mean",
         metric(snap, "admission.queue_delay_us").stat.mean()},
        {"cluster.epochs", count("cluster.epochs")},
        {"cluster.epoch_wall_s_total", median(layers.epochWallTotal)},
        {"cluster.epoch_wall_s_max", median(layers.epochWallMax)},
        {"cluster.migrations", count("cluster.migrations")},
        {"budget.slice_installs", count("budget.slice_installs")},
        {"driver.pool_jobs", metric(snap, "pool.jobs_executed").value},
        {"driver.pool_job_wall_mean_s", median(layers.poolJobWallMean)},
        {"driver.pool_idle_frac", median(layers.poolIdle)},
        {"obs.overhead_frac",
         trace_mode ? share(trunMed - runMed, runMed) : 0.0},
    };

    int attempted = 0, failed = 0;
    for (const auto &e : exps) {
        attempted += e.runs;
        failed += e.failedRuns;
    }

    std::ofstream out(dir + "/result.json");
    out.precision(17);
    out << "{\n  \"workload\": ";
    writeString(out, w);
    out << ",\n  \"seed\": " << seed << ",\n  \"node_ticks\": " << ticks
        << ",\n  \"registry_ticks\": "
        << metric(snap, "engine.ticks").count
        << ",\n  \"timed_reps\": " << run.size()
        << ",\n  \"traced_reps\": " << trun.size()
        << ",\n  \"attempted\": " << attempted
        << ",\n  \"failed\": " << failed << ",\n  \"reps\": [";
    for (std::size_t k = 0; k < reps.size(); ++k)
        out << (k ? ", " : "") << "{\"traced\": "
            << (reps[k].traced ? "true" : "false")
            << ", \"setup_s\": " << reps[k].setupS
            << ", \"run_s\": " << reps[k].runS
            << ", \"cpu_s\": " << reps[k].cpuS
            << ", \"probe_s\": " << 0.5 * (probes[k] + probes[k + 1])
            << "}";
    out << "],\n  \"end_to_end\": ";
    writeMetrics(out, e2e);
    out << ",\n  \"per_layer\": ";
    writeMetrics(out, perLayer);
    out << ",\n  \"experiments\": [";
    for (std::size_t i = 0; i < exps.size(); ++i) {
        const ExpRecord &e = exps[i];
        out << (i ? "," : "") << "\n    {\"id\": ";
        writeString(out, e.label);
        out << ", \"digest\": ";
        writeString(out, e.digest);
        out << ", \"runs\": " << e.runs
            << ", \"failed_runs\": " << e.failedRuns
            << ", \"ticks\": " << e.ticks << ", \"errors\": [";
        for (std::size_t k = 0; k < e.errors.size() && k < 5; ++k) {
            out << (k ? ", " : "");
            writeString(out, e.errors[k]);
        }
        out << "]}";
    }
    out << "\n  ]\n}\n";

    std::ofstream layersOut(dir + "/layers.json");
    layersOut.precision(17);
    writeMetrics(layersOut, perLayer);
    layersOut << "\n";

    std::ofstream traceOut(dir + "/trace.json");
    spans.write(traceOut);
    if (!out || !layersOut || !traceOut)
        throw std::runtime_error("cannot write results under " + dir);
}

int
usage()
{
    std::cerr << "usage: perfbench --workload node_paper|"
                 "node_crowd_admission|cluster_budget --seed N "
                 "--seconds S --trace 0|1 --out DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string k = argv[i], v = argv[i + 1];
            if (k == "--workload")
                workload = v;
            else if (k == "--seed")
                seed = std::stoull(v);
            else if (k == "--seconds")
                seconds = std::stod(v);
            else if (k == "--trace")
                trace = std::stoi(v);
            else if (k == "--out")
                out = v;
            else
                return usage();
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (argc % 2 != 1 || out.empty() || !(seconds > 0.0) ||
        (trace != 0 && trace != 1) ||
        (!isClusterWorkload(workload) && nodeExperimentCount(workload) == 0))
        return usage();

    try {
        Bench bench(workload, seed);
        bench.rep(false); // warm-up: caches, catalog, allocator
        const double start = wallNow();
        int timed = 0;
        while (timed < 3 || wallNow() - start < seconds) {
            // Traced mode alternates traced and untraced reps so both
            // medians see the same machine conditions.
            if (trace)
                bench.rep(true);
            bench.rep(false);
            ++timed;
        }
        if (!trace)
            bench.rep(true);
        bench.writeResult(out, trace);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
