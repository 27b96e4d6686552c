// Impact-based accounting (the paper's core contribution, §3–§4.2) as an
// open accounting API.
//
// An `Accountant` prices a job's resource usage (`JobUsage`) on a catalog
// machine, in its own currency unit. Accountants are constructed by name
// through the string-keyed `AccountantRegistry` from a parameterized
// `AccountantSpec`, so new pricing methods plug in without touching the
// simulator or platform code — exactly the pattern of the routing-policy
// registry (`sim/policy.hpp`). The paper's five methods are builtin
// registry entries:
//
//   Runtime — core-time only (Chameleon-style). Ignores heterogeneity.
//   Energy  — raw energy used. Rewards idling on allocated hardware.
//   Peak    — core-time weighted by machine peak performance (ACCESS-style
//             service units). Indirectly incentivizes energy-hungry nodes.
//   EBA     — Energy-Based Accounting, Eq. 1:
//                ê_j = (e_j + β · d_j · TDP_R) / 2
//             the average of actual energy and full-TDP potential energy
//             (params "beta", default 1 as in the paper, and "pue" — 1
//             multiplies measured energy by the facility PUE, §3.2).
//   CBA     — Carbon-Based Accounting, Eq. 2:
//                c_j = e_j · I_f(t) + d_j · D_f(y)/(24·365)
//             operational carbon at the facility's grid intensity plus
//             depreciated embodied carbon (param "depreciation": 0 =
//             double-declining balance, the paper's choice; 1 = linear).
//
// Two composite builtins go beyond the paper (the titular "core hours AND
// carbon credits" levers):
//
//   Blended   — weighted core-hour + carbon composite,
//               w_core · core-hours + w_carbon · gCO2e
//               (params "core_weight", "carbon_weight", "depreciation").
//   CarbonTax — Runtime plus a per-gCO2e surcharge, in core-hour
//               equivalents (params "rate" core-hours per gCO2e,
//               "depreciation").
//
// CPU jobs are provisioned by core (green-ACCESS disaggregates node power to
// cores), so the TDP and embodied terms scale with the job's core count.
// GPU jobs are provisioned by whole device.
//
// A spec is the only way to name a method: `all_methods()` lists the
// paper's five as bare specs, and `AccountantRegistry::make` builds one.
//
// A driver that prices many jobs on a fixed deployment binds the accountant
// to each machine once (`Accountant::on`) and calls the bound form. CBA
// resolves its `CarbonSite` there (the machine's grid trace and embodied
// rate), so a charge no longer looks either up.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "carbon/intensity.hpp"
#include "carbon/rates.hpp"
#include "machine/catalog.hpp"
#include "util/thread_annotations.hpp"

namespace ga::acct {

/// The resources one finished (or predicted) execution consumed.
struct JobUsage {
    double duration_s = 0.0;   ///< wall-clock duration
    double energy_j = 0.0;     ///< task-attributed energy (CPU+GPU)
    int cores = 1;             ///< provisioned cores (CPU jobs)
    int gpus = 0;              ///< provisioned GPUs (0 for CPU jobs)
    /// Absolute time at which the usage is priced (CBA's carbon-intensity
    /// lookup). Callers choose the semantics: the batch simulator quotes
    /// routing/budget prices at the job's *submit* time but meters completed
    /// jobs at their actual *start* time (Eq. 2 reads the grid when the job
    /// runs, which differs for queued jobs).
    double priced_at_s = 0.0;
};

/// An accountant bound to one machine (`Accountant::on`): prices a usage on
/// that machine.
using BoundCharge = std::function<double(const JobUsage&)>;

/// Interface: price one job on one machine. Charges are in method-specific
/// units (core-hours, joules, SU-like peak units, EBA joules, gCO2e).
/// Implementations must be immutable after construction: `charge` is const
/// and may be called concurrently from many sweep threads over the same
/// instance. All parameters arrive through the `AccountantSpec` at
/// construction time.
class Accountant {
public:
    virtual ~Accountant() = default;

    [[nodiscard]] virtual double charge(const JobUsage& usage,
                                        const ga::machine::CatalogEntry& m) const = 0;

    /// Binds this accountant to machine `m`: the result prices a usage
    /// exactly as `charge(usage, m)` does. A driver binds each machine once
    /// per run, so an override resolves there what depends only on the
    /// machine (a grid trace, an embodied rate) instead of on every charge.
    /// The default forwards to `charge`. The result refers to this
    /// accountant and to `m`, which must outlive it.
    [[nodiscard]] virtual BoundCharge on(const ga::machine::CatalogEntry& m) const {
        return [this, &m](const JobUsage& usage) { return charge(usage, m); };
    }

    /// The registry name this instance was built under ("Runtime", "CBA",
    /// a custom name).
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    [[nodiscard]] virtual std::string_view unit() const noexcept = 0;

    /// Returns a copy of this accountant bound to per-machine grid-intensity
    /// traces (machine name -> facility trace), or nullptr when the method
    /// never reads the grid (the default). The simulator calls this to hand
    /// scenario grids (e.g. the Fig-7 regional profiles) to carbon-aware
    /// methods; grid-blind methods are used as built.
    [[nodiscard]] virtual std::unique_ptr<Accountant> with_grid(
        const std::map<std::string, ga::carbon::IntensityTrace>& intensity) const {
        (void)intensity;
        return nullptr;
    }
};

/// A named, parameterized accountant selection — the unit `SimOptions` and
/// the sweep engine carry. Parameters are string-keyed doubles with
/// per-method defaults (e.g. {"beta", 0.5} for EBA).
struct AccountantSpec {
    std::string name;
    std::map<std::string, double> params;

    /// Parameter lookup with fallback.
    [[nodiscard]] double param(std::string_view key, double fallback) const;

    /// "EBA(beta=0.5)" — the name alone when there are no params.
    /// Deterministic (params print in key order), used in sweep labels.
    [[nodiscard]] std::string label() const;

    friend bool operator==(const AccountantSpec&, const AccountantSpec&) = default;
};

/// String-keyed accountant factory registry. `global()` arrives preloaded
/// with the paper's five methods and the two composite builtins; user code
/// registers custom methods at startup and runs them by name through
/// `SimOptions`/`SweepGrid`/`Ledger`. All members are thread-safe — sweeps
/// resolve specs concurrently.
class AccountantRegistry {
public:
    using Factory =
        std::function<std::unique_ptr<Accountant>(const AccountantSpec&)>;

    /// Registers a factory; throws PreconditionError on a duplicate name.
    void register_accountant(std::string name, Factory factory);

    [[nodiscard]] bool contains(std::string_view name) const;

    /// All registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const;

    /// Builds the named accountant; throws RuntimeError for an unknown name.
    [[nodiscard]] std::unique_ptr<const Accountant> make(
        const AccountantSpec& spec) const;

    /// The process-wide registry, preloaded with the builtins.
    [[nodiscard]] static AccountantRegistry& global();

private:
    // Registry locks sit at the top of the declared lock hierarchy: a
    // registry lookup may happen on the way into a ledger operation
    // (Ledger::define_currency), never the other way around.
    mutable ga::util::Mutex mutex_ GA_ACQUIRED_BEFORE(Ledger::mutex_);
    std::map<std::string, Factory, std::less<>> factories_ GA_GUARDED_BY(mutex_);
};

/// The paper's five methods as bare specs, in its order: Runtime, Energy,
/// Peak, EBA, CBA.
[[nodiscard]] const std::vector<AccountantSpec>& all_methods();

/// The two beyond-paper builtins (Blended, CarbonTax) with default
/// parameters, in that order.
[[nodiscard]] const std::vector<AccountantSpec>& beyond_paper_accountants();

// ------------------------------------------------------- builtin methods

/// Runtime accounting: core-hours (GPU jobs: GPU-hours).
class RuntimeAccounting final : public Accountant {
public:
    [[nodiscard]] double charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "Runtime";
    }
    [[nodiscard]] std::string_view unit() const noexcept override {
        return "core-hours";
    }
};

/// Energy accounting: joules used, no capacity term.
class EnergyAccounting final : public Accountant {
public:
    [[nodiscard]] double charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "Energy";
    }
    [[nodiscard]] std::string_view unit() const noexcept override { return "J"; }
};

/// Peak accounting: core-time × peak performance rating (ACCESS-style).
/// For GPU jobs the rating is the device's manufacturer GFlop/s.
class PeakAccounting final : public Accountant {
public:
    [[nodiscard]] double charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "Peak";
    }
    [[nodiscard]] std::string_view unit() const noexcept override {
        return "peak-units";
    }
};

/// Energy-Based Accounting (Eq. 1).
class EnergyBasedAccounting final : public Accountant {
public:
    /// `beta` weights the potential-use (TDP) term; the paper uses 1.0.
    /// `apply_pue` multiplies measured energy by the facility's PUE (§3.2's
    /// cooling/overhead refinement; off by default, as in the paper).
    explicit EnergyBasedAccounting(double beta = 1.0, bool apply_pue = false);

    [[nodiscard]] double charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "EBA";
    }
    [[nodiscard]] std::string_view unit() const noexcept override { return "J-eq"; }

    /// The TDP attributed to the job's provisioned share of the machine.
    [[nodiscard]] static double provisioned_tdp_w(
        const JobUsage& usage, const ga::machine::CatalogEntry& m);

    [[nodiscard]] double beta() const noexcept { return beta_; }

private:
    double beta_;
    bool apply_pue_;
};

/// One machine as Carbon-Based Accounting prices it, resolved once: the
/// facility's grid trace (or, without one, the machine's catalog average
/// intensity) and the machine's per-core embodied rate D_f(y)/(24·365) under
/// one depreciation method. Eq. 2 is implemented here and nowhere else;
/// `CarbonBasedAccounting` prices through `site(m)`. A site refers to its
/// catalog entry and trace, which must outlive it.
class CarbonSite {
public:
    /// `trace` is the facility's grid trace, or nullptr for the catalog
    /// average.
    CarbonSite(const ga::machine::CatalogEntry& m,
               const ga::carbon::IntensityTrace* trace,
               ga::carbon::DepreciationMethod depreciation);

    /// Grid intensity at an absolute time (gCO2e/kWh).
    [[nodiscard]] double intensity_at(double t_seconds) const {
        return trace_ != nullptr ? trace_->at(t_seconds)
                                 : entry_->avg_carbon_intensity;
    }

    /// Operational term only (e_j · I_f(t) at `usage.priced_at_s`).
    [[nodiscard]] double operational_g(const JobUsage& usage) const;

    /// Embodied term only (d_j · provisioned share of D_f(y)/(24·365)).
    [[nodiscard]] double embodied_g(const JobUsage& usage) const;

    /// Eq. 2's operational term and the charge it is part of.
    struct Metered {
        double operational_g = 0.0;
        double total_g = 0.0;
    };

    /// Eq. 2 from one validation of `usage` against the machine and one
    /// intensity lookup: the operational term and the total, so a meter
    /// that reports both reads the grid once.
    [[nodiscard]] Metered meter(const JobUsage& usage) const;

    /// Eq. 2: `meter(usage).total_g`.
    [[nodiscard]] double charge(const JobUsage& usage) const {
        return meter(usage).total_g;
    }

private:
    const ga::machine::CatalogEntry* entry_;
    const ga::carbon::IntensityTrace* trace_;
    ga::carbon::DepreciationMethod depreciation_;
    double per_core_g_per_hour_;
};

/// Carbon-Based Accounting (Eq. 2).
class CarbonBasedAccounting final : public Accountant {
public:
    /// `intensity` maps machine name -> facility grid trace. Machines not in
    /// the map fall back to their catalog yearly-average intensity.
    CarbonBasedAccounting(
        std::map<std::string, ga::carbon::IntensityTrace> intensity = {},
        ga::carbon::DepreciationMethod depreciation =
            ga::carbon::DepreciationMethod::DoubleDeclining);

    [[nodiscard]] double charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const override {
        return site(m).charge(usage);
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "CBA";
    }
    [[nodiscard]] std::string_view unit() const noexcept override { return "gCO2e"; }

    /// Rebinds to the scenario's grid traces, preserving the depreciation
    /// schedule.
    [[nodiscard]] std::unique_ptr<Accountant> with_grid(
        const std::map<std::string, ga::carbon::IntensityTrace>& intensity)
        const override;

    /// Prices through `site(m)`.
    [[nodiscard]] BoundCharge on(const ga::machine::CatalogEntry& m) const override;

    /// Machine `m` as this accountant prices it; refers to this accountant's
    /// trace for `m`, so it must not outlive the accountant.
    [[nodiscard]] CarbonSite site(const ga::machine::CatalogEntry& m) const;

    /// Operational term only (e_j · I_f(t)).
    [[nodiscard]] double operational_g(const JobUsage& usage,
                                       const ga::machine::CatalogEntry& m) const {
        return site(m).operational_g(usage);
    }

    /// Embodied term only (d_j · provisioned share of D_f(y)/(24·365)).
    [[nodiscard]] double embodied_g(const JobUsage& usage,
                                    const ga::machine::CatalogEntry& m) const {
        return site(m).embodied_g(usage);
    }

    [[nodiscard]] ga::carbon::DepreciationMethod depreciation() const noexcept {
        return depreciation_;
    }

private:
    std::map<std::string, ga::carbon::IntensityTrace> intensity_;
    ga::carbon::DepreciationMethod depreciation_;
};

// --------------------------------------------- beyond-paper composites

/// Weighted core-hour + carbon composite: the allocation is granted in one
/// blended unit, w_core · core-hours + w_carbon · gCO2e, so a site can put
/// a single price on both the capacity a job occupies and the carbon it
/// emits. Weights must be non-negative with a positive sum.
class BlendedAccounting final : public Accountant {
public:
    explicit BlendedAccounting(double core_weight = 1.0,
                               double carbon_weight = 1.0,
                               CarbonBasedAccounting carbon = {});

    [[nodiscard]] double charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "Blended";
    }
    [[nodiscard]] std::string_view unit() const noexcept override {
        return "blend-units";
    }
    [[nodiscard]] std::unique_ptr<Accountant> with_grid(
        const std::map<std::string, ga::carbon::IntensityTrace>& intensity)
        const override;
    /// Prices the carbon part through its CBA's site for `m`.
    [[nodiscard]] BoundCharge on(const ga::machine::CatalogEntry& m) const override;

    [[nodiscard]] double core_weight() const noexcept { return core_weight_; }
    [[nodiscard]] double carbon_weight() const noexcept { return carbon_weight_; }

private:
    [[nodiscard]] double blend(double core_hours, double carbon_g) const noexcept {
        return core_weight_ * core_hours + carbon_weight_ * carbon_g;
    }

    double core_weight_;
    double carbon_weight_;
    RuntimeAccounting runtime_;
    CarbonBasedAccounting carbon_;
};

/// Runtime accounting plus a per-gCO2e surcharge (a carbon tax): the charge
/// is core-hours + rate · gCO2e, in core-hour equivalents. The decarbonizing
/// lever of the CEO-DC line of work expressed as a price signal: dirty-grid
/// or embodied-heavy machines cost visibly more core-hours.
class CarbonTaxAccounting final : public Accountant {
public:
    /// `tax_per_g` converts gCO2e into core-hour equivalents (default 0.01
    /// core-hours per gram); must be non-negative.
    explicit CarbonTaxAccounting(double tax_per_g = 0.01,
                                 CarbonBasedAccounting carbon = {});

    [[nodiscard]] double charge(const JobUsage& usage,
                                const ga::machine::CatalogEntry& m) const override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "CarbonTax";
    }
    [[nodiscard]] std::string_view unit() const noexcept override {
        return "taxed-core-hours";
    }
    [[nodiscard]] std::unique_ptr<Accountant> with_grid(
        const std::map<std::string, ga::carbon::IntensityTrace>& intensity)
        const override;
    /// Prices the carbon part through its CBA's site for `m`.
    [[nodiscard]] BoundCharge on(const ga::machine::CatalogEntry& m) const override;

    [[nodiscard]] double tax_per_g() const noexcept { return tax_per_g_; }

private:
    [[nodiscard]] double taxed(double core_hours, double carbon_g) const noexcept {
        return core_hours + tax_per_g_ * carbon_g;
    }

    double tax_per_g_;
    RuntimeAccounting runtime_;
    CarbonBasedAccounting carbon_;
};

}  // namespace ga::acct
