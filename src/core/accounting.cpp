#include "core/accounting.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/spec.hpp"
#include "util/units.hpp"

namespace ga::acct {

namespace {

void validate(const JobUsage& usage, const ga::machine::CatalogEntry& m) {
    GA_REQUIRE(usage.duration_s >= 0.0, "accounting: negative duration");
    GA_REQUIRE(usage.energy_j >= 0.0, "accounting: negative energy");
    GA_REQUIRE(usage.cores >= 0, "accounting: negative core count");
    GA_REQUIRE(usage.gpus >= 0, "accounting: negative gpu count");
    GA_REQUIRE(usage.cores > 0 || usage.gpus > 0,
               "accounting: job must hold cores or gpus");
    if (usage.gpus > 0) {
        GA_REQUIRE(usage.gpus <= m.node.gpu_count,
                   "accounting: job gpus exceed machine gpus");
    }
    // Note: usage.cores may exceed one node's core count — cluster jobs span
    // multiple nodes of the same machine type; per-core rates still apply.
}

/// Shared "depreciation" registry param: 0 = double-declining (the paper's
/// choice), 1 = linear.
ga::carbon::DepreciationMethod depreciation_param(const AccountantSpec& spec) {
    const double d = spec.param("depreciation", 0.0);
    GA_REQUIRE(d == 0.0 || d == 1.0,
               "accounting: depreciation param must be 0 (DDB) or 1 (linear)");
    return d == 0.0 ? ga::carbon::DepreciationMethod::DoubleDeclining
                    : ga::carbon::DepreciationMethod::Linear;
}

void register_builtins(AccountantRegistry& r) {
    r.register_accountant("Runtime", [](const AccountantSpec&) {
        return std::make_unique<RuntimeAccounting>();
    });
    r.register_accountant("Energy", [](const AccountantSpec&) {
        return std::make_unique<EnergyAccounting>();
    });
    r.register_accountant("Peak", [](const AccountantSpec&) {
        return std::make_unique<PeakAccounting>();
    });
    r.register_accountant("EBA", [](const AccountantSpec& spec) {
        // "pue" is a switch for the machine's *catalog* PUE, not a PUE
        // value — reject anything but 0/1 so passing an actual PUE (1.58)
        // fails loudly instead of silently flipping the flag.
        const double pue = spec.param("pue", 0.0);
        GA_REQUIRE(pue == 0.0 || pue == 1.0,
                   "EBA: pue param must be 0 (off) or 1 (apply catalog PUE)");
        return std::make_unique<EnergyBasedAccounting>(spec.param("beta", 1.0),
                                                       pue == 1.0);
    });
    r.register_accountant("CBA", [](const AccountantSpec& spec) {
        return std::make_unique<CarbonBasedAccounting>(
            std::map<std::string, ga::carbon::IntensityTrace>{},
            depreciation_param(spec));
    });
    r.register_accountant("Blended", [](const AccountantSpec& spec) {
        return std::make_unique<BlendedAccounting>(
            spec.param("core_weight", 1.0), spec.param("carbon_weight", 1.0),
            CarbonBasedAccounting({}, depreciation_param(spec)));
    });
    r.register_accountant("CarbonTax", [](const AccountantSpec& spec) {
        return std::make_unique<CarbonTaxAccounting>(
            spec.param("rate", 0.01),
            CarbonBasedAccounting({}, depreciation_param(spec)));
    });
}

}  // namespace

// --------------------------------------------------------- AccountantSpec

double AccountantSpec::param(std::string_view key, double fallback) const {
    return ga::util::spec_param(params, key, fallback);
}

std::string AccountantSpec::label() const {
    return ga::util::spec_label(name, params);
}

// ---------------------------------------------------- AccountantRegistry

void AccountantRegistry::register_accountant(std::string name, Factory factory) {
    GA_REQUIRE(!name.empty(), "registry: accountant name must not be empty");
    GA_REQUIRE(factory != nullptr,
               "registry: accountant factory must not be null");
    const ga::util::LockGuard lock(mutex_);
    const auto [it, inserted] =
        factories_.emplace(std::move(name), std::move(factory));
    GA_REQUIRE(inserted,
               "registry: accountant '" + it->first + "' already registered");
}

bool AccountantRegistry::contains(std::string_view name) const {
    const ga::util::LockGuard lock(mutex_);
    return factories_.find(name) != factories_.end();
}

std::vector<std::string> AccountantRegistry::names() const {
    const ga::util::LockGuard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;
}

std::unique_ptr<const Accountant> AccountantRegistry::make(
    const AccountantSpec& spec) const {
    Factory factory;
    {
        const ga::util::LockGuard lock(mutex_);
        const auto it = factories_.find(spec.name);
        if (it == factories_.end()) {
            throw ga::util::RuntimeError("registry: unknown accountant '" +
                                         spec.name + "'");
        }
        factory = it->second;
    }
    // Build outside the lock: factories may be arbitrarily slow user code.
    return factory(spec);
}

AccountantRegistry& AccountantRegistry::global() {
    static AccountantRegistry registry;
    static const bool initialized = [] {
        register_builtins(registry);
        return true;
    }();
    (void)initialized;
    return registry;
}

const std::vector<AccountantSpec>& all_methods() {
    static const std::vector<AccountantSpec> specs = {
        {"Runtime", {}}, {"Energy", {}}, {"Peak", {}}, {"EBA", {}}, {"CBA", {}},
    };
    return specs;
}

const std::vector<AccountantSpec>& beyond_paper_accountants() {
    static const std::vector<AccountantSpec> specs = {
        AccountantSpec{"Blended", {}},
        AccountantSpec{"CarbonTax", {}},
    };
    return specs;
}

// ------------------------------------------------------- builtin methods

double RuntimeAccounting::charge(const JobUsage& usage,
                                 const ga::machine::CatalogEntry& m) const {
    validate(usage, m);
    const double units = usage.gpus > 0 ? static_cast<double>(usage.gpus)
                                        : static_cast<double>(usage.cores);
    return ga::util::core_hours(units, usage.duration_s);
}

double EnergyAccounting::charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const {
    validate(usage, m);
    return usage.energy_j;
}

double PeakAccounting::charge(const JobUsage& usage,
                              const ga::machine::CatalogEntry& m) const {
    validate(usage, m);
    if (usage.gpus > 0) {
        // GPU service units: device-hours weighted by reported GFlop/s
        // (scaled to keep magnitudes printable).
        return ga::util::core_hours(static_cast<double>(usage.gpus),
                                    usage.duration_s) *
               m.node.gpu.gflops / 1000.0;
    }
    return ga::util::core_hours(static_cast<double>(usage.cores), usage.duration_s) *
           m.node.cpu.peak_score_per_thread / 1000.0;
}

EnergyBasedAccounting::EnergyBasedAccounting(double beta, bool apply_pue)
    : beta_(beta), apply_pue_(apply_pue) {
    GA_REQUIRE(beta > 0.0 && beta <= 1.0, "EBA: beta must be in (0, 1]");
}

double EnergyBasedAccounting::provisioned_tdp_w(const JobUsage& usage,
                                                const ga::machine::CatalogEntry& m) {
    if (usage.gpus > 0) {
        return static_cast<double>(usage.gpus) * m.node.gpu.tdp_w;
    }
    return static_cast<double>(usage.cores) * m.node.tdp_per_core_w();
}

double EnergyBasedAccounting::charge(const JobUsage& usage,
                                     const ga::machine::CatalogEntry& m) const {
    validate(usage, m);
    const double pue = apply_pue_ ? m.pue : 1.0;
    const double potential_j =
        usage.duration_s * provisioned_tdp_w(usage, m);  // d_j * TDP_R
    return (pue * usage.energy_j + beta_ * potential_j) / 2.0;
}

CarbonSite::CarbonSite(const ga::machine::CatalogEntry& m,
                       const ga::carbon::IntensityTrace* trace,
                       ga::carbon::DepreciationMethod depreciation)
    : entry_(&m),
      trace_(trace),
      depreciation_(depreciation),
      per_core_g_per_hour_(ga::carbon::per_core_rate_g_per_hour(m, depreciation)) {}

double CarbonSite::operational_g(const JobUsage& usage) const {
    return ga::util::joules_to_kwh(usage.energy_j) * intensity_at(usage.priced_at_s);
}

double CarbonSite::embodied_g(const JobUsage& usage) const {
    const double hours = ga::util::seconds_to_hours(usage.duration_s);
    if (usage.gpus > 0) {
        return hours * ga::carbon::gpu_job_rate_g_per_hour(*entry_, usage.gpus,
                                                           depreciation_);
    }
    return hours * static_cast<double>(usage.cores) * per_core_g_per_hour_;
}

CarbonSite::Metered CarbonSite::meter(const JobUsage& usage) const {
    validate(usage, *entry_);
    const double operational = operational_g(usage);
    return {operational, operational + embodied_g(usage)};
}

CarbonBasedAccounting::CarbonBasedAccounting(
    std::map<std::string, ga::carbon::IntensityTrace> intensity,
    ga::carbon::DepreciationMethod depreciation)
    : intensity_(std::move(intensity)), depreciation_(depreciation) {}

std::unique_ptr<Accountant> CarbonBasedAccounting::with_grid(
    const std::map<std::string, ga::carbon::IntensityTrace>& intensity) const {
    return std::make_unique<CarbonBasedAccounting>(intensity, depreciation_);
}

CarbonSite CarbonBasedAccounting::site(const ga::machine::CatalogEntry& m) const {
    const auto it = intensity_.find(m.node.name);
    return CarbonSite(m, it != intensity_.end() ? &it->second : nullptr,
                      depreciation_);
}

BoundCharge CarbonBasedAccounting::on(const ga::machine::CatalogEntry& m) const {
    return [carbon = site(m)](const JobUsage& usage) { return carbon.charge(usage); };
}

// --------------------------------------------- beyond-paper composites

BlendedAccounting::BlendedAccounting(double core_weight, double carbon_weight,
                                     CarbonBasedAccounting carbon)
    : core_weight_(core_weight),
      carbon_weight_(carbon_weight),
      carbon_(std::move(carbon)) {
    GA_REQUIRE(core_weight >= 0.0 && carbon_weight >= 0.0,
               "Blended: weights must be non-negative");
    GA_REQUIRE(core_weight + carbon_weight > 0.0,
               "Blended: at least one weight must be positive");
}

double BlendedAccounting::charge(const JobUsage& usage,
                                 const ga::machine::CatalogEntry& m) const {
    return blend(runtime_.charge(usage, m), carbon_.charge(usage, m));
}

BoundCharge BlendedAccounting::on(const ga::machine::CatalogEntry& m) const {
    return [this, &m, carbon = carbon_.site(m)](const JobUsage& usage) {
        return blend(runtime_.charge(usage, m), carbon.charge(usage));
    };
}

std::unique_ptr<Accountant> BlendedAccounting::with_grid(
    const std::map<std::string, ga::carbon::IntensityTrace>& intensity) const {
    return std::make_unique<BlendedAccounting>(
        core_weight_, carbon_weight_,
        CarbonBasedAccounting(intensity, carbon_.depreciation()));
}

CarbonTaxAccounting::CarbonTaxAccounting(double tax_per_g,
                                         CarbonBasedAccounting carbon)
    : tax_per_g_(tax_per_g), carbon_(std::move(carbon)) {
    GA_REQUIRE(tax_per_g >= 0.0, "CarbonTax: rate must be non-negative");
}

double CarbonTaxAccounting::charge(const JobUsage& usage,
                                   const ga::machine::CatalogEntry& m) const {
    return taxed(runtime_.charge(usage, m), carbon_.charge(usage, m));
}

BoundCharge CarbonTaxAccounting::on(const ga::machine::CatalogEntry& m) const {
    return [this, &m, carbon = carbon_.site(m)](const JobUsage& usage) {
        return taxed(runtime_.charge(usage, m), carbon.charge(usage));
    };
}

std::unique_ptr<Accountant> CarbonTaxAccounting::with_grid(
    const std::map<std::string, ga::carbon::IntensityTrace>& intensity) const {
    return std::make_unique<CarbonTaxAccounting>(
        tax_per_g_, CarbonBasedAccounting(intensity, carbon_.depreciation()));
}

}  // namespace ga::acct
