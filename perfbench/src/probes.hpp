// Layer probes for the traced pass: each drives one layer alone, through
// its public API, at the shape the workload gives that layer, and returns
// host nanoseconds per unit of work.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// sim::Process: ns per Process::delay round trip (one suspend and one
/// resume) with `procs` processes taking turns on one engine.
double process_ns_per_switch(int procs);

/// sim::Engine: ns per scheduled-and-dispatched event in a hold model that
/// keeps `depth` events pending (each fired event schedules one successor
/// at a pseudo-random future time drawn from `seed`).
double engine_ns_per_event(std::size_t depth, std::uint64_t seed);

/// ib verbs: ns per message over one RC connection on a two-node fabric,
/// `window` sends of `bytes` posted back to back per repetition.
double ib_ring_ns_per_msg(std::uint32_t bytes, int window);

}  // namespace perfbench
