// Rotation of a one-session run over every CPU the benchmark may use.
//
// On a shared virtual machine the vCPUs do not run equally fast: the host
// places each on a physical core whose neighbours change, so one vCPU can run
// cache-bound code several percent to twice as slowly as another, for seconds
// at a time. A lone thread stays on whichever vCPU the guest scheduler first
// gave it, so a one-session run measured that vCPU's neighbours along with
// the engine, and runs of the same code spread widely. Moving the thread to
// the next CPU a few times a second makes every run sample all of them alike.
#ifndef PERFBENCH_CPU_ROTATION_H_
#define PERFBENCH_CPU_ROTATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The CPUs the calling thread may run on.
std::vector<int> AllowedCpus();

/// Restricts the calling thread, and every thread it starts afterwards, to
/// `cpus`. Returns false when the system refuses.
bool SetAffinity(const std::vector<int>& cpus);

/// Moves its caller to the next CPU of a fixed list, round robin, once per
/// interval. Call Tick() between units of work; it costs a clock read
/// unless a move is due.
class CpuRotation {
 public:
  CpuRotation(std::vector<int> cpus, int64_t interval_ns);

  void Tick();

  int64_t moves() const { return moves_; }

 private:
  std::vector<int> cpus_;
  int64_t interval_ns_;
  size_t next_ = 0;
  int64_t due_ns_ = 0;  ///< 0: move on the first Tick
  int64_t moves_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPU_ROTATION_H_
