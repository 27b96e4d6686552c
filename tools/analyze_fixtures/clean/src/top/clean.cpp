// Fixture: everything the rules allow — and prose that *mentions* banned
// tokens, which must not trip anything because matching runs on
// comment/string-stripped source. For instance: std::rand, std::mutex,
// time(nullptr), std::unordered_map, system_clock.
#include <map>
#include <string>

// The string below spells a banned token; literals are stripped too.
const char* kDocumentation =
    "never call std::rand() or time(nullptr) in library code";

double total(const std::map<std::string, double>& ordered) {
    double sum = 0.0;
    for (const auto& [key, value] : ordered) sum += value;
    (void)kDocumentation;
    return sum;
}

// A project function that shares a banned name is not the C library's.
int roll_project_die() { return dice::rand(); }

// Member calls that share a banned name are not the C library's either.
int roll_member_dice(Dice& d, Dice* p) { return d.rand() + p->rand(); }
