#include "support/translate_options.h"

#include "support/env.h"

namespace wj {

TranslateOptions TranslateOptions::fromEnv() {
    TranslateOptions o;
    const std::string bounds = envStr("WJ_BOUNDS");
    o.bounds = (bounds == "all" || bounds == "2") ? 2 : envFlag("WJ_BOUNDS", false) ? 1 : 0;
    o.parallel = envFlag("WJ_PARALLEL", false);
    o.simd = envFlag("WJ_SIMD", false);
    o.soa = envFlag("WJ_SOA", false);
    return o;
}

} // namespace wj
