// Fixture: hash-order iteration feeding a serializer. Output order would
// depend on the standard library's hash, breaking byte-identical results.
#include <sstream>
#include <string>
#include <unordered_map>

std::string serialize(const std::unordered_map<std::string, double>& metrics) {
    std::ostringstream out;
    for (const auto& [key, value] : metrics) {
        out << key << "=" << value << "\n";
    }
    return out.str();
}
