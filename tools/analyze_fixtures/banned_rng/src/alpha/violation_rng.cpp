// Fixture: standard-library RNG in library code. The project contract is
// that all randomness flows through the seeded ga::util::Rng so experiments
// replay bit-exactly; std::rand draws from hidden global state.
#include <cstdlib>

int roll_die() {
    return std::rand() % 6 + 1;
}

int roll_global_die() {
    return ::rand() % 6 + 1;
}

int roll_bare_die() {
    return rand() % 6 + 1;
}
