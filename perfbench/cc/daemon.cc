#include "daemon.h"

#include <dirent.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

/// Value of a "Key:   N ..." line in a /proc status file; 0 if absent.
uint64_t StatusField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

bool Daemon::Start(const std::string& path) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string arg0 = path;
  char* argv[] = {arg0.data(), nullptr};
  const int rc =
      posix_spawn(&pid_, path.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  stdout_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    std::fprintf(stderr, "perfbench: cannot spawn %s: %s\n", path.c_str(),
                 std::strerror(rc));
    return false;
  }
  // The daemon prints "sketch_serverd: listening on 127.0.0.1:PORT" once
  // its listener is bound; read up to that newline.
  std::string line;
  char c = 0;
  while (read(stdout_fd_, &c, 1) == 1) {
    if (c == '\n') break;
    line.push_back(c);
  }
  const std::string marker = "listening on 127.0.0.1:";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) {
    std::fprintf(stderr, "perfbench: daemon did not report a port: '%s'\n",
                 line.c_str());
    return false;
  }
  port_ = static_cast<uint16_t>(
      std::strtoul(line.c_str() + at + marker.size(), nullptr, 10));
  return port_ != 0;
}

bool Daemon::Reap(int timeout_ms) {
  if (pid_ <= 0) return false;
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return false;
}

ProcSample Daemon::Sample() const {
  ProcSample s;
  // utime and stime are fields 14 and 15 of /proc/<pid>/stat, counted
  // after the parenthesised command name (which may contain spaces).
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string all((std::istreambuf_iterator<char>(stat)),
                  std::istreambuf_iterator<char>());
  const std::size_t close_paren = all.rfind(')');
  if (close_paren != std::string::npos) {
    std::istringstream rest(all.substr(close_paren + 2));
    std::string field;
    uint64_t utime = 0;
    uint64_t stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    const auto hz = static_cast<uint64_t>(sysconf(_SC_CLK_TCK));
    s.cpu_us = (utime + stime) * 1000000 / hz;
  }
  {
    std::ifstream pstat("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};
    pstat >> cpu;
    for (uint64_t& x : v) pstat >> x;
    s.host_steal_ticks = v[7];
  }
  // Context switches are per task; the process's own status file only
  // counts its main thread.
  const std::string task_dir = "/proc/" + std::to_string(pid_) + "/task";
  if (DIR* dir = opendir(task_dir.c_str())) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const std::string status = task_dir + "/" + e->d_name + "/status";
      s.ctx_switches += StatusField(status, "voluntary_ctxt_switches") +
                        StatusField(status, "nonvoluntary_ctxt_switches");
    }
    closedir(dir);
  }
  return s;
}

double Daemon::PeakRssMiB() const {
  return static_cast<double>(StatusField(
             "/proc/" + std::to_string(pid_) + "/status", "VmHWM")) /
         1024.0;
}

}  // namespace perfbench
