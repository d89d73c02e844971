/// \file ppref_served.cc
/// \brief The network daemon binary: `serve::Server` behind `net::Daemon`.
///
/// Usage:
///   ppref_served [--port P] [--port-file FILE] [--workers N] [--threads T]
///                [--deadline-us N] [--max-in-flight N]
///                [--max-pattern-nodes N] [--degrade mc|none]
///                [--degraded-samples N] [--conn-deadline-ms N]
///                [--max-connections N] [--plan-cache N] [--result-cache N]
///                [--circuit-cache N] [--shards N]
///                [--store-dir DIR] [--store-max-bytes N]
///                [--listen-fd N] [--idem-capacity N]
///
/// `--listen-fd N` adopts an already-bound, already-listening socket instead
/// of binding one — this is how `ppref_supervise` keeps the port stable
/// across daemon restarts (clients reconnect to the same address and hit the
/// replacement process). `--idem-capacity` sizes the idempotent-replay
/// window (0 disables request deduplication).
///
/// `--port 0` (the default) binds an ephemeral port; `--port-file` writes
/// the bound port as a decimal line once listening, which is how scripted
/// callers (check.sh's smoke stage, the e2e test) rendezvous without racing
/// for a fixed port. SIGTERM and SIGINT begin a graceful drain: the listen
/// socket closes, in-flight requests finish and flush, then the process
/// exits 0.
///
/// `--store-dir` opens (recovering if needed) a persistent circuit/result
/// store backing the server's caches: a restarted daemon pointed at
/// the same directory answers repeat queries warm from disk. The drain path
/// flushes the store after the last connection closes and reports the flush
/// duration in the final log line. Without the flag the daemon is purely
/// in-memory, exactly as before.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "ppref/common/clock.h"
#include "ppref/net/daemon.h"
#include "ppref/net/internal/io.h"
#include "ppref/store/store.h"

namespace {

using namespace ppref;

net::Daemon* g_daemon = nullptr;

void HandleSignal(int) {
  if (g_daemon != nullptr) g_daemon->RequestDrain();
}

struct Options {
  int port = 0;
  std::string port_file;
  std::string store_dir;
  std::uint64_t store_max_bytes = 0;
  net::DaemonOptions daemon;
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [--port P] [--port-file FILE] [--workers N] [--threads T]\n"
      "          [--deadline-us N] [--max-in-flight N]\n"
      "          [--max-pattern-nodes N] [--degrade mc|none]\n"
      "          [--degraded-samples N] [--conn-deadline-ms N]\n"
      "          [--max-connections N] [--plan-cache N] [--result-cache N]\n"
      "          [--circuit-cache N] [--shards N]\n"
      "          [--store-dir DIR] [--store-max-bytes N]\n"
      "          [--listen-fd N] [--idem-capacity N]\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return false;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--port-file") {
      options.port_file = argv[++i];
      continue;
    }
    if (flag == "--store-dir") {
      options.store_dir = argv[++i];
      continue;
    }
    if (flag == "--degrade") {
      const std::string mode = argv[++i];
      if (mode == "mc") {
        options.daemon.server_options.degradation =
            serve::ServerOptions::Degradation::kMonteCarlo;
      } else if (mode == "none") {
        options.daemon.server_options.degradation =
            serve::ServerOptions::Degradation::kNone;
      } else {
        std::fprintf(stderr, "--degrade takes mc|none\n");
        return false;
      }
      continue;
    }
    const unsigned long long value = std::strtoull(argv[++i], nullptr, 10);
    if (flag == "--port") {
      options.port = static_cast<int>(value);
    } else if (flag == "--workers") {
      options.daemon.workers = static_cast<unsigned>(value);
    } else if (flag == "--threads") {
      options.daemon.server_options.threads = static_cast<unsigned>(value);
    } else if (flag == "--deadline-us") {
      options.daemon.server_options.default_deadline_ns = value * 1000;
    } else if (flag == "--max-in-flight") {
      options.daemon.server_options.max_in_flight = value;
    } else if (flag == "--max-pattern-nodes") {
      options.daemon.server_options.max_pattern_nodes =
          static_cast<unsigned>(value);
    } else if (flag == "--degraded-samples") {
      options.daemon.server_options.degraded_samples =
          static_cast<unsigned>(value);
    } else if (flag == "--conn-deadline-ms") {
      options.daemon.connection_deadline_ns = value * 1000 * 1000;
    } else if (flag == "--max-connections") {
      options.daemon.max_connections = value;
    } else if (flag == "--plan-cache") {
      options.daemon.server_options.plan_cache_capacity = value;
    } else if (flag == "--result-cache") {
      options.daemon.server_options.result_cache_capacity = value;
    } else if (flag == "--circuit-cache") {
      options.daemon.server_options.circuit_cache_capacity = value;
    } else if (flag == "--shards") {
      options.daemon.server_options.cache_shards =
          static_cast<unsigned>(value);
    } else if (flag == "--store-max-bytes") {
      options.store_max_bytes = value;
    } else if (flag == "--listen-fd") {
      options.daemon.listen_fd = static_cast<int>(value);
    } else if (flag == "--idem-capacity") {
      options.daemon.idempotency_capacity = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::internal::IgnoreSigpipe();
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    PrintUsage(argv[0]);
    return 2;
  }

  // The store outlives the daemon (the server borrows it), and its
  // destructor runs a final synced flush after the drain log below.
  std::unique_ptr<store::Store> store;
  if (!options.store_dir.empty()) {
    store::StoreOptions store_options;
    store_options.dir = options.store_dir;
    store_options.max_bytes = options.store_max_bytes;
    auto opened = store::Store::Open(std::move(store_options));
    if (!opened.ok()) {
      std::fprintf(stderr, "ppref_served: cannot open store: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(opened).value();
    options.daemon.server_options.store = store.get();
    const store::StoreStats st = store->stats();
    std::printf("ppref_served: store %s: %llu records in %llu segments\n",
                options.store_dir.c_str(),
                static_cast<unsigned long long>(st.records),
                static_cast<unsigned long long>(st.segments));
  }

  options.daemon.port = options.port;
  net::Daemon daemon(std::move(options.daemon));
  g_daemon = &daemon;

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  const Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "ppref_served: %s\n", started.ToString().c_str());
    return 1;
  }

  std::printf("ppref_served: listening on %s:%d\n",
              "127.0.0.1", daemon.port());
  std::fflush(stdout);
  if (!options.port_file.empty()) {
    if (std::FILE* out = std::fopen(options.port_file.c_str(), "w")) {
      std::fprintf(out, "%d\n", daemon.port());
      std::fclose(out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", options.port_file.c_str());
      daemon.Stop();
      return 1;
    }
  }

  daemon.Join();
  if (store != nullptr) {
    const std::uint64_t start = MonotonicNowNs();
    const Status flushed = store->Flush();
    const double ms = static_cast<double>(MonotonicNowNs() - start) / 1e6;
    if (!flushed.ok()) {
      std::fprintf(stderr, "ppref_served: store flush: %s\n",
                   flushed.ToString().c_str());
    }
    std::printf("ppref_served: drained, store flushed in %.2f ms, exiting\n",
                ms);
    return flushed.ok() ? 0 : 1;
  }
  std::printf("ppref_served: drained, exiting\n");
  return 0;
}
