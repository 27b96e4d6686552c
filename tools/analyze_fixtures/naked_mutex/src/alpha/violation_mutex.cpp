// Fixture: raw standard-library lock. Locking must go through the
// annotated ga::util::Mutex wrappers so clang Thread Safety Analysis sees
// every lock in the project.
#include <mutex>

class Counter {
public:
    void bump() {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++count_;
    }

private:
    std::mutex mutex_;
    long count_ = 0;
};
