#include "cpu.hpp"

#include <sched.h>

namespace perfbench {

namespace {
cpu_set_t g_default;
bool g_saved = false;
}  // namespace

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  if (!g_saved) {
    g_default = allowed;
    g_saved = true;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

void unpin() {
  if (g_saved) sched_setaffinity(0, sizeof g_default, &g_default);
}

}  // namespace perfbench
