#include "support/env.h"

#include <cstdlib>

namespace wj {

std::string envStr(const char* name) {
    const char* v = std::getenv(name);
    return v ? v : "";
}

bool envFlag(const char* name, bool dflt) {
    const std::string s = envStr(name);
    if (s.empty()) return dflt;
    return !(s == "0" || s == "off" || s == "false" || s == "no");
}

int64_t envInt(const char* name, int64_t dflt, int64_t min) {
    const std::string s = envStr(name);
    if (s.empty()) return dflt;
    const int64_t n = std::atoll(s.c_str());
    return n >= min ? n : dflt;
}

} // namespace wj
