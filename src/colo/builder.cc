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
ConfigBuilder::spec(server::ServerSpec spec)
{
    cfg.spec = std::move(spec);
    return *this;
}

ColoConfig
ConfigBuilder::build() const
{
    ColoConfig built = assembled();
    // validateConfig covers timing (positivity, interval >= tick),
    // so raw structs and built configs fail with the same messages.
    validateConfig(built);
    return built;
}

} // namespace colo
} // namespace pliant
