#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// Machine-state readings, taken only from /proc: the daemon's own
/// counters and the machine-wide steal time.
struct ProcSample {
  uint64_t cpu_us = 0;        ///< user + system time of every thread
  uint64_t ctx_switches = 0;  ///< voluntary + involuntary, summed over tasks
  /// Clock ticks the hypervisor ran something else while this VM's CPUs
  /// wanted to run (the steal column of /proc/stat).
  uint64_t host_steal_ticks = 0;
};

/// A sketch_serverd child process started with its default flags on an
/// ephemeral 127.0.0.1 TCP port. The destructor kills and reaps it if it
/// is still running, so no path leaves a daemon behind.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `path` and blocks until it prints its listening port. False
  /// (with a message on stderr) if it cannot be started.
  bool Start(const std::string& path);

  /// Waits up to `timeout_ms` for the process to exit after a Shutdown
  /// request, then kills it; true if it exited by itself with status 0.
  bool Reap(int timeout_ms);

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  ProcSample Sample() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMiB() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
