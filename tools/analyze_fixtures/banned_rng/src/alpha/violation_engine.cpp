// Fixture: a default-constructed standard engine seeded from
// std::random_device — nondeterministic across runs and platforms.
#include <random>

double noisy_sample() {
    std::random_device rd;
    std::mt19937 engine(rd());
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
}
