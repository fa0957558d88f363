// Binary trace file format (save once, replay through multiple memory
// paths — see examples/trace_replay).
//
// Layout (little endian):
//   magic   "MAC3DTRC"            8 B
//   version u32                   (currently 2)
//   threads u32
//   per thread: count u64, then count * {addr u64, op u8, size u8, gap u16,
//                                        pad u32}
//
// Records are stored as the model consumes them: every load, store and
// atomic is 1-16 B inside one FLIT (MemoryTrace::push splits the rest
// before saving). The loader rejects a record that breaks this rather than
// splitting it, so a saved trace loads back exactly.
#pragma once

#include <string>

#include "common/config.hpp"
#include "trace/trace.hpp"

namespace mac3d {

/// Throws std::runtime_error on IO failure.
void save_trace(const MemoryTrace& trace, const std::string& path);

/// Throws std::runtime_error on IO failure, format mismatch, a per-thread
/// count larger than the bytes left, or a record the model would misread
/// (size 0, over 16 B, or straddling a FLIT).
[[nodiscard]] MemoryTrace load_trace(const std::string& path);

/// Throws ConfigError, naming the thread, record, address and limit, when a
/// load, store or atomic of `trace` lies at or above the run's main memory,
/// nodes x hmc_capacity. Run it on every loaded trace before it reaches
/// the model; generated traces allocate inside [0, hmc_capacity).
void check_trace_addresses(const MemoryTrace& trace, const SimConfig& config);

}  // namespace mac3d
