// CPU placement for the benchmark process.
//
// The simulator runs exactly one thread at a time, so the benchmark keeps
// the whole process on one CPU: a handoff between rank threads then never
// waits on a cross-CPU wake-up, whose cost varied several-fold from run to
// run (README.md, "Placement"). The traced run also measures a pass at the
// placement the process started with, so the cost of cross-CPU handoffs
// still shows.
#pragma once

namespace perfbench {

/// Move the calling thread to the highest-numbered CPU it may run on;
/// threads it creates afterwards inherit that CPU. Returns the CPU, or -1
/// when the affinity cannot be set (the process then runs wherever the OS
/// puts it).
int pin_to_one_cpu();

/// Give the calling thread back the CPU set it had before pin_to_one_cpu();
/// threads it creates afterwards run wherever the OS puts them.
void unpin();

}  // namespace perfbench
