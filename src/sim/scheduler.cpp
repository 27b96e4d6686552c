#include "sim/scheduler.hpp"

#include <utility>

#include "carbon/grids.hpp"

namespace ga::sim {

namespace {

std::map<std::string, ga::carbon::IntensityTrace> grid_traces(
    const SimOptions& options, std::span<const ClusterConfig> clusters) {
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    if (!options.regional_grids) return traces;
    for (const auto& c : clusters) {
        if (c.entry.grid_region.empty()) continue;
        traces.emplace(c.entry.node.name,
                       ga::carbon::synthesize(
                           ga::carbon::region(c.entry.grid_region),
                           /*days=*/30, options.grid_seed));
    }
    return traces;
}

std::unique_ptr<const RoutingPolicy> make_routing(
    const SimOptions& options, std::span<const ClusterConfig> clusters) {
    PolicySpec spec = options.policy_spec.has_value()
                          ? *options.policy_spec
                          : to_spec(options.policy, options.mixed_threshold);
    // Fixed-machine policies are named after their cluster; resolving the
    // name to an index once here spares them a per-submit name scan. A no-op
    // for every other policy name.
    if (spec.params.find("index") == spec.params.end()) {
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            if (clusters[c].entry.node.name == spec.name) {
                spec.params.emplace("index", static_cast<double>(c));
            }
        }
    }
    return PolicyRegistry::global().make(spec);
}

}  // namespace

RunSetup::RunSetup(const SimOptions& options,
                   std::span<const ClusterConfig> clusters)
    : traces(grid_traces(options, clusters)),
      cba(traces),
      pricing_spec(options.accountant_spec.has_value()
                       ? *options.accountant_spec
                       : ga::acct::to_spec(options.pricing)),
      pricer(bind(pricing_spec)),
      routing(make_routing(options, clusters)),
      fill_grid_intensity(routing->uses_grid_intensity()),
      fill_grid_forecast(fill_grid_intensity && routing->uses_grid_forecast()) {}

std::unique_ptr<const ga::acct::Accountant> RunSetup::bind(
    const ga::acct::AccountantSpec& spec) const {
    std::unique_ptr<const ga::acct::Accountant> accountant =
        ga::acct::AccountantRegistry::global().make(spec);
    if (!traces.empty()) {
        if (auto bound = accountant->with_grid(traces)) {
            accountant = std::move(bound);
        }
    }
    return accountant;
}

}  // namespace ga::sim
