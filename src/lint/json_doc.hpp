// perf/src/main.cpp reads its fingerprint file through these two names.
// The reader itself is common/json.hpp; this header exists only for perf/
// and goes when perf/ moves onto it (ROADMAP item 1).
#pragma once

#include "common/json.hpp"

namespace mac3d::lint {

using mac3d::JsonValue;
using mac3d::parse_json;

}  // namespace mac3d::lint
