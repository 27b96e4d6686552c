// Fixture: wall-clock reads outside the obs module. Virtual time comes
// from the scenario; a clock read is a hidden nondeterministic input, and
// diagnostic timing belongs in ga::obs::WallTimer (obs/walltime.hpp).
#include <chrono>
#include <ctime>

double seconds_since_epoch() {
    const auto t = static_cast<double>(time(nullptr));
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    return t + std::chrono::duration<double>(now).count();
}

long global_seconds_since_epoch() {
    return static_cast<long>(::time(nullptr));
}
