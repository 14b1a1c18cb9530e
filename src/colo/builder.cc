#include "colo/builder.hh"

#include "util/logging.hh"

namespace pliant {
namespace colo {

ConfigBuilder &
ConfigBuilder::service(services::ServiceKind kind, Scenario scenario)
{
    return service("", kind, std::move(scenario));
}

ConfigBuilder &
ConfigBuilder::service(std::string name, services::ServiceKind kind,
                       Scenario scenario)
{
    ServiceSpec spec;
    spec.kind = kind;
    spec.scenario = std::move(scenario);
    spec.name = std::move(name);
    cfg.services.push_back(std::move(spec));
    return *this;
}

ConfigBuilder &
ConfigBuilder::app(const std::string &name)
{
    cfg.apps.push_back(name);
    cfg.initialVariants.push_back(0);
    return *this;
}

ConfigBuilder &
ConfigBuilder::app(const std::string &name, int initialVariant)
{
    cfg.apps.push_back(name);
    cfg.initialVariants.push_back(initialVariant);
    anyVariantPinned = true;
    return *this;
}

ConfigBuilder &
ConfigBuilder::apps(const std::vector<std::string> &names)
{
    for (const auto &name : names)
        app(name);
    return *this;
}

ConfigBuilder &
ConfigBuilder::seed(std::uint64_t seed)
{
    cfg.seed = seed;
    return *this;
}

ConfigBuilder &
ConfigBuilder::spec(server::ServerSpec spec)
{
    cfg.spec = std::move(spec);
    return *this;
}

ColoConfig
ConfigBuilder::build() const
{
    ColoConfig built = cfg;
    // An all-precise variant list is the engine's default; only keep
    // the list when a caller actually pinned something, so built
    // configs stay byte-identical to hand-written ones.
    if (!anyVariantPinned)
        built.initialVariants.clear();
    // validateConfig covers timing (positivity, interval >= tick),
    // so raw structs and built configs fail with the same messages.
    validateConfig(built);
    return built;
}

} // namespace colo
} // namespace pliant
