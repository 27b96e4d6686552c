// Portable Clang Thread Safety Analysis annotations and the annotated
// synchronization primitives every concurrent module in this repository
// must use.
//
// The determinism contracts this codebase leans on — parallel sweeps
// bit-identical to serial ones, exact-sum ledger admission under concurrent
// charges, golden ga-sim output at any thread count — are only as strong as
// the locking discipline behind them. These macros make that discipline a
// compile-time contract: under clang, `-Wthread-safety` (enabled by default
// for clang builds, promoted to an error) verifies that every access to a
// `GA_GUARDED_BY` field happens with its capability held and that every
// `GA_REQUIRES` helper is only called under the right lock. Under GCC and
// MSVC the macros expand to nothing and the wrappers compile down to the
// plain standard-library primitives.
//
// Project rule (enforced by `tools/ga-analyze`, rule `naked-mutex`):
// `std::mutex`, `std::lock_guard`, `std::unique_lock`, and
// `std::condition_variable` must not appear in the project's C++ outside
// this header. Use `ga::util::Mutex`, `ga::util::LockGuard`, and
// `ga::util::CondVar` instead, so the analysis sees every lock in the
// project.
#pragma once

#include <condition_variable>
#include <mutex>

// Clang implements the capability attributes behind -Wthread-safety; GCC
// and MSVC do not, so the annotations vanish there.
#if defined(__clang__)
#define GA_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define GA_THREAD_ANNOTATION_(x)
#endif

/// Marks a type as a capability (a lock). The string names the capability
/// kind in diagnostics ("mutex").
#define GA_CAPABILITY(x) GA_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose lifetime acquires/releases a capability.
#define GA_SCOPED_CAPABILITY GA_THREAD_ANNOTATION_(scoped_lockable)

/// Marks a data member readable/writable only with the capability held.
#define GA_GUARDED_BY(x) GA_THREAD_ANNOTATION_(guarded_by(x))

/// Marks a pointer member whose *pointee* is guarded by the capability.
#define GA_PT_GUARDED_BY(x) GA_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function acquires the capability (must not be held at entry).
#define GA_ACQUIRE(...) GA_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability (must be held at entry).
#define GA_RELEASE(...) GA_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function attempts the capability; the first argument is the success
/// return value.
#define GA_TRY_ACQUIRE(...) \
    GA_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function may only be called with the capability held (and does not
/// release it) — the annotation for private helpers of locked classes.
#define GA_REQUIRES(...) GA_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function may only be called with the capability *not* held (guards
/// against self-deadlock through re-entry).
#define GA_EXCLUDES(...) GA_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define GA_RETURN_CAPABILITY(x) GA_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the analysis cannot see the invariant.
#define GA_NO_THREAD_SAFETY_ANALYSIS \
    GA_THREAD_ANNOTATION_(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Declared lock hierarchy. A `Mutex` member/local annotated with
// `GA_ACQUIRED_BEFORE(other)` must always be taken before `other` when both
// are held; `GA_ACQUIRED_AFTER(other)` is the mirror. Together the
// annotations form the project's global lock-order graph, and
// `tools/ga-analyze` cross-checks every observed `LockGuard` nesting (and
// every acquisition reached through a call made under a lock) against it —
// an undeclared ordering or a cycle is a build-gating finding. The current
// hierarchy (see docs/ARCHITECTURE.md, "Lock hierarchy"):
//
//   registries (PolicyRegistry, AccountantRegistry)
//     -> accounting (Ledger)
//       -> infrastructure (Broker, ThreadPool)
//         -> error-collection locals (SweepRunner::run, parallel_for)
//         -> observability leaves (obs::Registry, obs::Tracer)
//
// By default the macros expand to nothing even under clang: clang's
// `acquired_before`/`acquired_after` checking is still beta
// (-Wthread-safety-beta), and the hierarchy deliberately names mutexes of
// *other* classes (e.g. a sweep-local error mutex ordered after
// `ga::acct::Ledger::mutex_`), which the in-scope attribute arguments
// cannot reference. Define GA_TSA_ACQUIRED_ORDER to feed the subset clang
// can resolve into the beta checker; ga-analyze consumes the annotations
// textually either way.
#if defined(__clang__) && defined(GA_TSA_ACQUIRED_ORDER)
#define GA_ACQUIRED_BEFORE(...) \
    GA_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define GA_ACQUIRED_AFTER(...) \
    GA_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#else
/// This mutex is taken before the named mutexes when both are held.
#define GA_ACQUIRED_BEFORE(...)
/// This mutex is taken after the named mutexes when both are held.
#define GA_ACQUIRED_AFTER(...)
#endif

namespace ga::util {

/// `std::mutex` as an annotated capability. Identical cost (the wrapper is
/// a single `std::mutex` member and every method is a forwarding inline),
/// but clang can now prove which fields each lock protects.
class GA_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() GA_ACQUIRE() { m_.lock(); }
    void unlock() GA_RELEASE() { m_.unlock(); }
    [[nodiscard]] bool try_lock() GA_TRY_ACQUIRE(true) { return m_.try_lock(); }

private:
    friend class CondVar;
    std::mutex m_;
};

/// RAII lock for `Mutex` — the project's `std::lock_guard`.
class GA_SCOPED_CAPABILITY LockGuard {
public:
    explicit LockGuard(Mutex& mutex) GA_ACQUIRE(mutex) : mutex_(mutex) {
        mutex_.lock();
    }
    ~LockGuard() GA_RELEASE() { mutex_.unlock(); }

    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

private:
    Mutex& mutex_;
};

/// Condition variable waiting directly on `Mutex`.
///
/// `wait` requires the capability: callers hold a `LockGuard` and loop on
/// their predicate inline (`while (!ready_) cv_.wait(mutex_);`) so the
/// predicate's reads of guarded fields stay inside the annotated scope —
/// the predicate-lambda overload of `std::condition_variable` would move
/// those reads into an un-annotatable closure. Analysis-wise the capability
/// stays held across `wait`, matching the caller-visible contract (the lock
/// is reacquired before `wait` returns).
class CondVar {
public:
    void wait(Mutex& mutex) GA_REQUIRES(mutex) { cv_.wait(mutex.m_); }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    // `std::condition_variable` needs a `std::unique_lock`, which would put
    // an unlock/lock cycle outside the analysis; waiting on the raw
    // `std::mutex` through `condition_variable_any` keeps the wrapper thin.
    std::condition_variable_any cv_;
};

}  // namespace ga::util
