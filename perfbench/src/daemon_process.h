/// \file daemon_process.h
/// \brief A `net::Daemon` in a child process of its own, driven over a
/// control socket.
///
/// The parent binds the loopback listen socket, then forks and re-executes
/// this binary in `serve` mode, handing it the socket. Running the daemon in
/// a fresh process image keeps its CPU time and peak RSS apart from the
/// client's (and from the oracles the client computes), and lets the
/// benchmark restart it as a real process would be restarted.
///
/// The control protocol is one command byte from the parent and a plain
/// struct back from the child (both ends are the same binary):
///   'S' → `Snapshot` (counters, CPU time, resident set)
///   'T' → `Snapshot` followed by the retained trace records
///   'Q' → drain the daemon, flush the store, then a final `Snapshot`
/// EOF on the control socket drains and exits without a reply.

#ifndef PERFBENCH_DAEMON_PROCESS_H_
#define PERFBENCH_DAEMON_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ppref/obs/trace.h"
#include "ppref/serve/stats.h"
#include "ppref/store/store.h"

namespace perfbench {

/// What the parent asks the child daemon to be.
struct DaemonConfig {
  /// Store directory; empty runs the daemon without a store.
  std::string store_dir;
  std::size_t plan_capacity = 256;
  std::size_t result_capacity = 8192;
  /// Sample every request into the trace ring.
  bool trace = false;
};

/// Sent once by the child after `Daemon::Start`.
struct Hello {
  /// MonotonicNowNs() just before `Store::Open` (or the server build when
  /// there is no store); the clock is shared by all processes on the host.
  std::uint64_t start_ns = 0;
  std::uint64_t store_open_ns = 0;
  std::int32_t ok = 0;
};

/// One point-in-time reading of the child. Plain data, sent as bytes.
struct Snapshot {
  std::uint64_t mono_ns = 0;
  /// CLOCK_PROCESS_CPUTIME_ID of the child, all threads.
  std::uint64_t cpu_ns = 0;
  /// Resident set now (/proc/self/statm). `getrusage`'s high-water mark
  /// lags the live figure by up to a few hundred KB, so it is not used.
  std::uint64_t rss_kb = 0;
  ppref::serve::ServerStats server;
  ppref::store::StoreStats store;
  /// The DP engine's process-wide counters.
  std::uint64_t dp_runs = 0;
  std::uint64_t dp_steps = 0;
  std::uint64_t dp_states = 0;
};

/// Parent-side handle of one child daemon. Not copyable; the destructor
/// kills and reaps a child that was not quit.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Binds 127.0.0.1:0, spawns the child and waits for its Hello.
  bool Spawn(const DaemonConfig& config);

  int port() const { return port_; }
  const Hello& hello() const { return hello_; }
  bool running() const { return pid_ > 0; }

  /// Reads counters; with `traces` non-null also the trace ring.
  bool Snap(Snapshot* out, std::vector<ppref::obs::TraceRecord>* traces);

  /// Drains the daemon, reads its final snapshot and reaps it. True only
  /// when the child exited 0 after a clean drain.
  bool Quit(Snapshot* out);

 private:
  void Kill();

  pid_t pid_ = -1;
  int control_fd_ = -1;
  int port_ = 0;
  Hello hello_;
};

/// Entry point of the `serve` mode (the child side).
int ServeMain(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_PROCESS_H_
