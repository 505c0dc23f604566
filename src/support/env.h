// Typed reads of WJ_* environment switches, so every switch shares one
// grammar. An unset or empty variable always means "use the default".
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace wj {

/// The value of `name`, or "" when unset.
std::string envStr(const char* name);

/// Boolean switch: "0", "off", "false" and "no" read as false, any other
/// non-empty value as true; `dflt` when unset or empty.
bool envFlag(const char* name, bool dflt);

/// Integer switch (atoll): `dflt` when unset, empty, or below `min`.
int64_t envInt(const char* name, int64_t dflt,
               int64_t min = std::numeric_limits<int64_t>::min());

} // namespace wj
