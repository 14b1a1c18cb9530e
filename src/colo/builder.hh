/**
 * @file
 * Fluent, validated construction of colocation configs.
 *
 * ConfigBuilder is the experiment-facing way to assemble a
 * ColoConfig: chained calls describe the tenants, apps, and runtime,
 * and build() runs the full up-front validation pass
 * (colo::validateConfig), so a bad config fails at build time with a
 * pointed message instead of deep inside the tick loop. Raw
 * ColoConfig structs remain valid input to colo::Engine — the
 * builder is sugar plus early errors, not a new semantic.
 */

#ifndef PLIANT_COLO_BUILDER_HH
#define PLIANT_COLO_BUILDER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "colo/engine.hh"

namespace pliant {
namespace colo {

/**
 * The setters ConfigBuilder and cluster::ClusterConfigBuilder share:
 * one per EngineKnobs field, plus the app list and the seed that
 * both configs carry. `Builder` is the deriving builder (CRTP), so
 * each setter returns it and chains keep its own methods; `Config`
 * is the config it builds, held here as `cfg`. (Types are spelled
 * via pliant:: where a method name such as `admission` hides the
 * namespace inside this class scope.)
 */
template <typename Builder, typename Config> class EngineKnobSetters
{
  public:
    /** Append one approximate app, starting precise. */
    Builder &app(const std::string &name)
    {
        cfg.apps.push_back(name);
        cfg.initialVariants.push_back(0);
        return self();
    }

    /** Append one approximate app pinned to a starting variant. */
    Builder &app(const std::string &name, int initialVariant)
    {
        cfg.apps.push_back(name);
        cfg.initialVariants.push_back(initialVariant);
        anyVariantPinned = true;
        return self();
    }

    /** Append several apps, all starting precise. */
    Builder &apps(const std::vector<std::string> &names)
    {
        for (const auto &name : names)
            app(name);
        return self();
    }

    Builder &seed(std::uint64_t seed)
    {
        cfg.seed = seed;
        return self();
    }

    Builder &runtime(core::RuntimeKind kind)
    {
        cfg.runtime = kind;
        return self();
    }

    Builder &arbiter(core::ArbiterKind kind)
    {
        cfg.arbiter = kind;
        return self();
    }

    /** Learned runtime: vector-conditioned (default) vs worst-ratio. */
    Builder &learnedVector(bool enable = true)
    {
        cfg.learnedVector = enable;
        return self();
    }

    Builder &decisionInterval(sim::Time interval)
    {
        cfg.decisionInterval = interval;
        return self();
    }

    Builder &slackThreshold(double threshold)
    {
        cfg.slackThreshold = threshold;
        return self();
    }

    Builder &tick(sim::Time tick)
    {
        cfg.tick = tick;
        return self();
    }

    Builder &maxDuration(sim::Time duration)
    {
        cfg.maxDuration = duration;
        return self();
    }

    Builder &cachePartitioning(bool enable = true)
    {
        cfg.enableCachePartitioning = enable;
        return self();
    }

    /**
     * Table-driven samplers (NOT byte-identical; keep off for
     * golden-pinned runs).
     */
    Builder &fastSampling(bool enable = true)
    {
        cfg.fastSampling = enable;
        return self();
    }

    /**
     * Keep the per-tick TimePoint series (on by default for a
     * ColoConfig, off for a ClusterConfig). Summaries are
     * accumulated online either way, so this changes memory, not
     * numbers; writeTimelineCsv needs it on.
     */
    Builder &retainTimeline(bool enable = true)
    {
        cfg.retainTimeline = enable;
        return self();
    }

    /**
     * Enable the admission front-end with the given (possibly
     * customized) config; build() validates its fields.
     */
    Builder &admission(pliant::admission::AdmissionConfig admission_cfg)
    {
        cfg.admission = std::move(admission_cfg);
        cfg.admission.enabled = true;
        return self();
    }

    /** Enable admission with the given policies, defaults elsewhere. */
    Builder &admission(pliant::admission::AdmissionKind policy,
                       pliant::admission::BatchingKind batching =
                           pliant::admission::BatchingKind::None)
    {
        cfg.admission.enabled = true;
        cfg.admission.policy = policy;
        cfg.admission.batching = batching;
        return self();
    }

    /**
     * Observability knobs (metrics registry, opt-in tick-phase
     * spans). Default-off; a disabled config runs the exact pre-obs
     * code path.
     */
    Builder &observability(obs::ObsConfig obs_cfg)
    {
        cfg.observability = obs_cfg;
        return self();
    }

    /** Enable the metrics registry with default knobs. */
    Builder &observability(bool metrics = true)
    {
        cfg.observability.metrics = metrics;
        return self();
    }

  protected:
    /**
     * A copy of `cfg` for build() to validate. An all-precise
     * variant list is the engine's default, so the list is kept
     * only when some app() pinned a variant: built configs stay
     * byte-identical to hand-written ones.
     */
    Config assembled() const
    {
        Config built = cfg;
        if (!anyVariantPinned)
            built.initialVariants.clear();
        return built;
    }

    Config cfg;

  private:
    Builder &self() { return static_cast<Builder &>(*this); }

    bool anyVariantPinned = false;
};

/**
 * Builder for ColoConfig. Example:
 *
 *   ColoConfig cfg =
 *       ConfigBuilder()
 *           .service(services::ServiceKind::Memcached,
 *                    Scenario::flashCrowd(0.6, 0.95, 30 * sim::kSecond,
 *                                         3 * sim::kSecond,
 *                                         20 * sim::kSecond,
 *                                         10 * sim::kSecond))
 *           .service("nginx-edge", services::ServiceKind::Nginx,
 *                    Scenario::constant(0.65))
 *           .apps({"canneal", "bayesian"})
 *           .runtime(core::RuntimeKind::Pliant)
 *           .seed(71)
 *           .build();
 */
class ConfigBuilder : public EngineKnobSetters<ConfigBuilder, ColoConfig>
{
  public:
    ConfigBuilder() = default;

    /** Append an interactive tenant named after its kind. */
    ConfigBuilder &service(services::ServiceKind kind, Scenario scenario);

    /** Append a named interactive tenant (enables same-kind shards). */
    ConfigBuilder &service(std::string name, services::ServiceKind kind,
                           Scenario scenario);

    ConfigBuilder &spec(server::ServerSpec spec);

    /**
     * Validate and return the config. Throws util::FatalError with
     * the first problem found (duplicate tenants/apps, unknown
     * catalog names, out-of-range variants, fair-core starvation).
     */
    ColoConfig build() const;
};

} // namespace colo
} // namespace pliant

#endif // PLIANT_COLO_BUILDER_HH
