// LifecycleTracer computes the per-stage residency decomposition itself
// (PathTelemetry::residency, ::critical). The alias below exists only for
// the repo benchmark, which attaches the tracer under this name
// (perf/src/workloads.cpp); nothing else uses it.
#pragma once

#include "obs/lifecycle.hpp"

namespace mac3d {

using LatencyDecomposer = LifecycleTracer;

}  // namespace mac3d
