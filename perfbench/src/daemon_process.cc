#include "daemon_process.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>

#include "ppref/common/clock.h"
#include "ppref/net/daemon.h"
#include "ppref/obs/metrics.h"
#include "ppref/serve/server.h"

namespace perfbench {
namespace {

static_assert(std::is_trivially_copyable_v<Snapshot>);
static_assert(std::is_trivially_copyable_v<ppref::obs::TraceRecord>);

constexpr int kControlTimeoutMs = 30000;

bool WriteAll(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads exactly `size` bytes, each wait bounded by kControlTimeoutMs.
bool ReadAll(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, kControlTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t CounterValue(const ppref::obs::MetricsSnapshot& metrics,
                           const char* name) {
  const ppref::obs::MetricSample* sample = metrics.Find(name);
  return sample != nullptr ? sample->counter_value : 0;
}

Snapshot TakeSnapshot(const ppref::serve::Server& server,
                      const ppref::store::Store* store) {
  Snapshot snap;
  snap.mono_ns = ppref::MonotonicNowNs();
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  snap.cpu_ns = static_cast<std::uint64_t>(cpu.tv_sec) * 1000000000ull +
                static_cast<std::uint64_t>(cpu.tv_nsec);
  if (FILE* statm = std::fopen("/proc/self/statm", "r")) {
    unsigned long long size = 0, resident = 0;
    if (std::fscanf(statm, "%llu %llu", &size, &resident) == 2) {
      snap.rss_kb = resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
    }
    std::fclose(statm);
  }
  snap.server = server.Snapshot();
  if (store != nullptr) snap.store = store->stats();
  const ppref::obs::MetricsSnapshot metrics =
      ppref::obs::MetricsRegistry::Default().Snapshot();
  snap.dp_runs = CounterValue(metrics, "ppref_infer_dp_runs_total");
  snap.dp_steps = CounterValue(metrics, "ppref_infer_dp_steps_total");
  snap.dp_states = CounterValue(metrics, "ppref_infer_dp_states_total");
  return snap;
}

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

DaemonProcess::~DaemonProcess() { Kill(); }

void DaemonProcess::Kill() {
  if (control_fd_ >= 0) close(control_fd_);
  control_fd_ = -1;
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  pid_ = -1;
}

bool DaemonProcess::Spawn(const DaemonConfig& config) {
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return false;
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd, 128) != 0 ||
      getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(listen_fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  int control[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, control) != 0) {
    close(listen_fd);
    return false;
  }
  // The parent's end must not leak into later children.
  fcntl(control[0], F_SETFD, FD_CLOEXEC);
  // Everything exec needs is built before fork: the child may only make
  // async-signal-safe calls until execv when the parent is multi-threaded.
  const std::string listen_arg = std::to_string(listen_fd);
  const std::string control_arg = std::to_string(control[1]);
  const std::string plan_arg = std::to_string(config.plan_capacity);
  const std::string result_arg = std::to_string(config.result_capacity);
  const std::string store_arg = config.store_dir.empty() ? "-" : config.store_dir;
  const char* argv[] = {"ppref_perfbench", "serve",
                        "--listen-fd",     listen_arg.c_str(),
                        "--control-fd",    control_arg.c_str(),
                        "--plan-cap",      plan_arg.c_str(),
                        "--result-cap",    result_arg.c_str(),
                        "--store",         store_arg.c_str(),
                        "--trace",         config.trace ? "1" : "0",
                        nullptr};
  const pid_t pid = fork();
  if (pid < 0) {
    close(listen_fd);
    close(control[0]);
    close(control[1]);
    return false;
  }
  if (pid == 0) {
    close(control[0]);
    // The daemon must not outlive the benchmark, however that ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execv("/proc/self/exe", const_cast<char* const*>(argv));
    _exit(127);
  }
  close(listen_fd);
  close(control[1]);
  pid_ = pid;
  control_fd_ = control[0];
  if (!ReadAll(control_fd_, &hello_, sizeof(hello_)) || hello_.ok != 1) {
    Kill();
    return false;
  }
  return true;
}

bool DaemonProcess::Snap(Snapshot* out,
                         std::vector<ppref::obs::TraceRecord>* traces) {
  const char command = traces != nullptr ? 'T' : 'S';
  if (pid_ <= 0 || !WriteAll(control_fd_, &command, 1) ||
      !ReadAll(control_fd_, out, sizeof(*out))) {
    return false;
  }
  if (traces == nullptr) return true;
  std::uint64_t count = 0;
  if (!ReadAll(control_fd_, &count, sizeof(count))) return false;
  traces->resize(count);
  return ReadAll(control_fd_, traces->data(),
                 count * sizeof(ppref::obs::TraceRecord));
}

bool DaemonProcess::Quit(Snapshot* out) {
  const char command = 'Q';
  const bool replied = pid_ > 0 && WriteAll(control_fd_, &command, 1) &&
                       ReadAll(control_fd_, out, sizeof(*out));
  if (!replied) {
    Kill();
    return false;
  }
  close(control_fd_);
  control_fd_ = -1;
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int ServeMain(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  const char* listen_arg = FlagValue(argc, argv, "--listen-fd");
  const char* control_arg = FlagValue(argc, argv, "--control-fd");
  const char* store_arg = FlagValue(argc, argv, "--store");
  const char* plan_arg = FlagValue(argc, argv, "--plan-cap");
  const char* result_arg = FlagValue(argc, argv, "--result-cap");
  const char* trace_arg = FlagValue(argc, argv, "--trace");
  if (listen_arg == nullptr || control_arg == nullptr || store_arg == nullptr ||
      plan_arg == nullptr || result_arg == nullptr || trace_arg == nullptr) {
    std::fprintf(stderr, "serve: missing flags\n");
    return 2;
  }
  const int control_fd = std::atoi(control_arg);
  Hello hello;
  hello.start_ns = ppref::MonotonicNowNs();

  std::unique_ptr<ppref::store::Store> store;
  if (std::strcmp(store_arg, "-") != 0) {
    ppref::store::StoreOptions store_options;
    store_options.dir = store_arg;
    auto opened = ppref::store::Store::Open(store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "serve: store open failed: %s\n",
                   opened.status().ToString().c_str());
      WriteAll(control_fd, &hello, sizeof(hello));
      return 3;
    }
    store = std::move(opened).value();
    hello.store_open_ns = ppref::MonotonicNowNs() - hello.start_ns;
  }

  const bool trace = std::strcmp(trace_arg, "1") == 0;
  ppref::serve::ServerOptions server_options;
  server_options.store = store.get();
  // One thread per request (the daemon keeps its default IO thread and
  // worker pool). The default, one per core, fans each consensus request's
  // world blocks over every core, which ties its figures to the busiest core
  // of a shared host: 4-thread consensus p99 spread 0.65 across seeds
  // against 0.06 with one. Answers do not depend on the thread count.
  server_options.threads = 1;
  server_options.plan_cache_capacity = std::strtoull(plan_arg, nullptr, 10);
  server_options.result_cache_capacity = std::strtoull(result_arg, nullptr, 10);
  server_options.trace_sample_permyriad = trace ? 10000 : 0;
  server_options.trace_capacity = trace ? (1u << 16) : 1024;
  ppref::serve::Server server(server_options);

  ppref::net::DaemonOptions daemon_options;
  daemon_options.listen_fd = std::atoi(listen_arg);
  daemon_options.server = &server;
  ppref::net::Daemon daemon(std::move(daemon_options));
  if (!daemon.Start().ok()) {
    WriteAll(control_fd, &hello, sizeof(hello));
    return 4;
  }
  hello.ok = 1;
  if (!WriteAll(control_fd, &hello, sizeof(hello))) return 5;

  for (;;) {
    char command = 0;
    ssize_t n = 0;
    do {
      n = read(control_fd, &command, 1);
    } while (n < 0 && errno == EINTR);
    if (n <= 0 || command == 'Q') {
      daemon.RequestDrain();
      daemon.Join();
      const bool flushed = store == nullptr || store->Flush().ok();
      if (n <= 0) return 6;
      const Snapshot snap = TakeSnapshot(server, store.get());
      if (!WriteAll(control_fd, &snap, sizeof(snap))) return 7;
      return flushed ? 0 : 8;
    }
    const Snapshot snap = TakeSnapshot(server, store.get());
    if (!WriteAll(control_fd, &snap, sizeof(snap))) return 7;
    if (command == 'T') {
      const std::vector<ppref::obs::TraceRecord> records = server.DumpTraces();
      const std::uint64_t count = records.size();
      if (!WriteAll(control_fd, &count, sizeof(count)) ||
          !WriteAll(control_fd, records.data(),
                    records.size() * sizeof(ppref::obs::TraceRecord))) {
        return 7;
      }
    }
  }
}

}  // namespace perfbench
