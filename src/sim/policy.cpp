#include "sim/policy.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "util/error.hpp"
#include "util/spec.hpp"

namespace ga::sim {

namespace {

/// Index of the feasible choice minimizing `key`; nullopt if none feasible.
/// Strict < keeps the first (lowest-index) machine on exact ties — the
/// deterministic tie-break every builtin relies on. Key may be any
/// strictly-ordered type (double, std::pair for lexicographic breaks).
template <typename KeyFn>
std::optional<std::size_t> argmin(std::span<const MachineChoice> choices,
                                  KeyFn key) {
    std::optional<std::size_t> best;
    std::optional<std::invoke_result_t<KeyFn&, const MachineChoice&>> best_key;
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (!choices[i].feasible) continue;
        auto k = key(choices[i]);
        if (!best_key.has_value() || k < *best_key) {
            best_key = std::move(k);
            best = i;
        }
    }
    return best;
}

double completion(const MachineChoice& c) {
    return c.queue_wait_s + c.runtime_s;
}

/// The live ClusterStatus behind a choice; throws when the caller supplied
/// no (or too little) cluster state — context-aware policies cannot run
/// without it.
const ClusterStatus& cluster_of(const SchedulingContext& ctx,
                                const MachineChoice& choice,
                                std::string_view policy) {
    GA_REQUIRE(choice.machine_index < ctx.clusters.size(),
               std::string(policy) + " policy requires cluster state in the "
                                     "scheduling context");
    return ctx.clusters[choice.machine_index];
}


/// Base for builtins that never read the budget fields, so sweeps ladder
/// their runs over budgets.
class BudgetBlindPolicy : public RoutingPolicy {
public:
    bool uses_budget() const noexcept override { return false; }
};

/// Intermediate base for builtins that never read the grid-intensity
/// fields: one shared override, impossible to forget on a new grid-blind
/// strategy.
class GridBlindPolicy : public BudgetBlindPolicy {
public:
    bool uses_grid_intensity() const noexcept override { return false; }
};

// ------------------------------------------------------- paper builtins

class GreedyPolicy final : public GridBlindPolicy {
public:
    std::optional<std::size_t> choose(
        const SchedulingContext&,
        std::span<const MachineChoice> choices) const override {
        return argmin(choices, [](const MachineChoice& c) { return c.cost; });
    }
    std::string_view name() const noexcept override { return "Greedy"; }
};

class EnergyPolicy final : public GridBlindPolicy {
public:
    std::optional<std::size_t> choose(
        const SchedulingContext&,
        std::span<const MachineChoice> choices) const override {
        return argmin(choices,
                      [](const MachineChoice& c) { return c.energy_j; });
    }
    std::string_view name() const noexcept override { return "Energy"; }
    bool uses_cost() const noexcept override { return false; }
};

class RuntimePolicy final : public GridBlindPolicy {
public:
    std::optional<std::size_t> choose(
        const SchedulingContext&,
        std::span<const MachineChoice> choices) const override {
        return argmin(choices,
                      [](const MachineChoice& c) { return c.runtime_s; });
    }
    std::string_view name() const noexcept override { return "Runtime"; }
    bool uses_cost() const noexcept override { return false; }
};

class EftPolicy final : public GridBlindPolicy {
public:
    std::optional<std::size_t> choose(
        const SchedulingContext&,
        std::span<const MachineChoice> choices) const override {
        return argmin(choices, completion);
    }
    std::string_view name() const noexcept override { return "EFT"; }
    bool uses_cost() const noexcept override { return false; }
};

class MixedPolicy final : public GridBlindPolicy {
public:
    explicit MixedPolicy(double threshold) : threshold_(threshold) {
        GA_REQUIRE(threshold_ >= 1.0, "policy: mixed threshold must be >= 1");
    }

    std::optional<std::size_t> choose(
        const SchedulingContext&,
        std::span<const MachineChoice> choices) const override {
        const auto cheapest =
            argmin(choices, [](const MachineChoice& c) { return c.cost; });
        if (!cheapest) return std::nullopt;
        const auto fastest = argmin(choices, completion);
        if (fastest && completion(choices[*fastest]) * threshold_ <
                           completion(choices[*cheapest])) {
            return fastest;
        }
        return cheapest;
    }
    std::string_view name() const noexcept override { return "Mixed"; }

private:
    double threshold_;
};

/// Always one machine. Resolves the target by its "index" param when given
/// (RunSetup sets it from the deployment), else by catalog name against the
/// context's cluster state.
class FixedMachinePolicy final : public GridBlindPolicy {
public:
    FixedMachinePolicy(std::string machine, std::optional<std::size_t> index)
        : machine_(std::move(machine)), index_(index) {}

    std::optional<std::size_t> choose(
        const SchedulingContext& ctx,
        std::span<const MachineChoice> choices) const override {
        std::optional<std::size_t> target = index_;
        if (!target) {
            for (std::size_t c = 0; c < ctx.clusters.size(); ++c) {
                if (ctx.clusters[c].name == machine_) target = c;
            }
        }
        GA_REQUIRE(target.has_value(),
                   "policy: fixed policy machine not deployed");
        GA_REQUIRE(*target < choices.size(),
                   "policy: fixed machine index out of range");
        if (!choices[*target].feasible) return std::nullopt;
        return target;
    }
    std::string_view name() const noexcept override { return machine_; }
    bool uses_cost() const noexcept override { return false; }

private:
    std::string machine_;
    std::optional<std::size_t> index_;
};

// -------------------------------------------------- beyond-paper builtins

/// Routes to the feasible cluster whose grid has the lowest carbon
/// intensity — the spatial carbon-shifting the related work (CEO-DC,
/// carbon-aware HPC resource management) argues for. "forecast" = 1 uses
/// the one-hour-ahead sample instead of the current one.
class CarbonAwarePolicy final : public BudgetBlindPolicy {
public:
    explicit CarbonAwarePolicy(bool forecast) : forecast_(forecast) {}

    std::optional<std::size_t> choose(
        const SchedulingContext& ctx,
        std::span<const MachineChoice> choices) const override {
        return argmin(choices, [&](const MachineChoice& c) {
            const auto& cluster = cluster_of(ctx, c, "CarbonAware");
            return forecast_ ? cluster.grid_forecast_g_per_kwh
                             : cluster.grid_intensity_g_per_kwh;
        });
    }
    std::string_view name() const noexcept override { return "CarbonAware"; }
    bool uses_grid_forecast() const noexcept override { return forecast_; }
    bool uses_cost() const noexcept override { return false; }

private:
    bool forecast_;
};

/// Queue balancing: fewest waiting jobs, ties broken by the backlog
/// estimate, then by machine index.
class LeastLoadedPolicy final : public GridBlindPolicy {
public:
    std::optional<std::size_t> choose(
        const SchedulingContext& ctx,
        std::span<const MachineChoice> choices) const override {
        return argmin(choices, [&](const MachineChoice& c) {
            const auto& cluster = cluster_of(ctx, c, "LeastLoaded");
            return std::pair{static_cast<double>(cluster.queue_depth),
                             cluster.queue_wait_s};
        });
    }
    std::string_view name() const noexcept override { return "LeastLoaded"; }
    bool uses_cost() const noexcept override { return false; }
};

/// Throttles spend rate against the remaining budget: compares what has
/// been spent with a linear schedule over the trace span. Ahead of (or on)
/// schedule it conserves — cheapest machine; behind schedule there is
/// budget to burn — earliest finish. Unbudgeted runs degrade to Greedy.
/// "slack" scales the schedule (> 1 spends more freely).
class BudgetPacingPolicy final : public GridBlindPolicy {
public:
    explicit BudgetPacingPolicy(double slack) : slack_(slack) {
        GA_REQUIRE(slack_ > 0.0, "policy: pacing slack must be positive");
    }

    std::optional<std::size_t> choose(
        const SchedulingContext& ctx,
        std::span<const MachineChoice> choices) const override {
        const auto cheapest =
            argmin(choices, [](const MachineChoice& c) { return c.cost; });
        if (ctx.budget_total <= 0.0) return cheapest;
        const double fraction =
            ctx.trace_span_s > 0.0
                ? std::min(1.0, ctx.now_s / ctx.trace_span_s)
                : 1.0;
        const double scheduled = ctx.budget_total * slack_ * fraction;
        const double spent = ctx.budget_total - ctx.budget_remaining;
        if (spent >= scheduled) return cheapest;
        return argmin(choices, completion);
    }
    std::string_view name() const noexcept override { return "BudgetPacing"; }
    bool uses_budget() const noexcept override { return true; }

private:
    double slack_;
};

/// Optional "index" param for the fixed-machine factories.
std::optional<std::size_t> index_param(const PolicySpec& spec) {
    const auto it = spec.params.find("index");
    if (it == spec.params.end()) return std::nullopt;
    GA_REQUIRE(it->second >= 0.0, "policy: fixed machine index negative");
    return static_cast<std::size_t>(it->second);
}

void register_builtins(PolicyRegistry& r) {
    r.register_policy("Greedy", [](const PolicySpec&) {
        return std::make_unique<GreedyPolicy>();
    });
    r.register_policy("Energy", [](const PolicySpec&) {
        return std::make_unique<EnergyPolicy>();
    });
    r.register_policy("Runtime", [](const PolicySpec&) {
        return std::make_unique<RuntimePolicy>();
    });
    r.register_policy("EFT", [](const PolicySpec&) {
        return std::make_unique<EftPolicy>();
    });
    r.register_policy("Mixed", [](const PolicySpec& spec) {
        return std::make_unique<MixedPolicy>(spec.param("threshold", 2.0));
    });
    for (const auto* machine : {"Theta", "IC", "FASTER"}) {
        r.register_policy(machine, [machine](const PolicySpec& spec) {
            return std::make_unique<FixedMachinePolicy>(machine,
                                                        index_param(spec));
        });
    }
    r.register_policy("CarbonAware", [](const PolicySpec& spec) {
        return std::make_unique<CarbonAwarePolicy>(
            spec.param("forecast", 0.0) != 0.0);
    });
    r.register_policy("LeastLoaded", [](const PolicySpec&) {
        return std::make_unique<LeastLoadedPolicy>();
    });
    r.register_policy("BudgetPacing", [](const PolicySpec& spec) {
        return std::make_unique<BudgetPacingPolicy>(spec.param("slack", 1.0));
    });
}

}  // namespace

// ------------------------------------------------------------ PolicySpec

double PolicySpec::param(std::string_view key, double fallback) const {
    return ga::util::spec_param(params, key, fallback);
}

std::string PolicySpec::label() const {
    return ga::util::spec_label(name, params);
}

// -------------------------------------------------------- PolicyRegistry

void PolicyRegistry::register_policy(std::string name, Factory factory) {
    GA_REQUIRE(!name.empty(), "registry: policy name must not be empty");
    GA_REQUIRE(factory != nullptr, "registry: policy factory must not be null");
    const ga::util::LockGuard lock(mutex_);
    const auto [it, inserted] =
        factories_.emplace(std::move(name), std::move(factory));
    GA_REQUIRE(inserted,
               "registry: policy '" + it->first + "' already registered");
}

bool PolicyRegistry::contains(std::string_view name) const {
    const ga::util::LockGuard lock(mutex_);
    return factories_.find(name) != factories_.end();
}

std::vector<std::string> PolicyRegistry::names() const {
    const ga::util::LockGuard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;
}

std::unique_ptr<const RoutingPolicy> PolicyRegistry::make(
    const PolicySpec& spec) const {
    Factory factory;
    {
        const ga::util::LockGuard lock(mutex_);
        const auto it = factories_.find(spec.name);
        if (it == factories_.end()) {
            throw ga::util::RuntimeError("registry: unknown policy '" +
                                         spec.name + "'");
        }
        factory = it->second;
    }
    // Build outside the lock: factories may be arbitrarily slow user code.
    return factory(spec);
}

PolicyRegistry& PolicyRegistry::global() {
    static PolicyRegistry registry;
    static const bool initialized = [] {
        register_builtins(registry);
        return true;
    }();
    (void)initialized;
    return registry;
}

const std::vector<PolicySpec>& all_policies() {
    static const std::vector<PolicySpec> specs = {
        {"Greedy", {}},  {"Energy", {}}, {"Mixed", {}}, {"EFT", {}},
        {"Runtime", {}}, {"Theta", {}},  {"IC", {}},    {"FASTER", {}},
    };
    return specs;
}

const std::vector<PolicySpec>& multi_machine_policies() {
    static const std::vector<PolicySpec> specs(all_policies().begin(),
                                                all_policies().begin() + 5);
    return specs;
}

const std::vector<PolicySpec>& beyond_paper_policies() {
    static const std::vector<PolicySpec> specs = {
        PolicySpec{"CarbonAware", {}},
        PolicySpec{"LeastLoaded", {}},
        PolicySpec{"BudgetPacing", {}},
    };
    return specs;
}

}  // namespace ga::sim
