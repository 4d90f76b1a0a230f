#include "cpu_rotation.h"

#include <sched.h>

#include <utility>

#include "trace.h"

namespace perfbench {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return !cpus.empty() && sched_setaffinity(0, sizeof(set), &set) == 0;
}

CpuRotation::CpuRotation(std::vector<int> cpus, int64_t interval_ns)
    : cpus_(std::move(cpus)), interval_ns_(interval_ns) {}

void CpuRotation::Tick() {
  if (cpus_.size() < 2) return;
  int64_t now = NowNs();
  if (due_ns_ != 0 && now < due_ns_) return;
  if (SetAffinity({cpus_[next_]})) ++moves_;
  next_ = (next_ + 1) % cpus_.size();
  due_ns_ = now + interval_ns_;
}

}  // namespace perfbench
