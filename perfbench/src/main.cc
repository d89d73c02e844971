/// \file main.cc
/// \brief ppref_perfbench — the layered benchmark of `ppref_served`.
///
///   ppref_perfbench --workload W --seed N --seconds S --trace 0|1
///       [--git-sha SHA]
///   ppref_perfbench self-test
///   ppref_perfbench list-metrics
///   ppref_perfbench serve ...          (the child daemon; internal)
///
/// A run builds the workload's inputs from the seed, starts a loopback
/// daemon (`net::Daemon` over `serve::Server`, in a child process) and
/// drives it closed-loop for S seconds. `--trace 0` reports the end-to-end
/// metrics; `--trace 1` runs the same inputs twice, untraced then traced,
/// and reports the per-layer breakdown. The last stdout line is one JSON
/// object {"correct", "attempted", "failed", "metrics"}. See README.md.

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon_process.h"
#include "inputs.h"
#include "ppref/circuit/compile.h"
#include "ppref/common/clock.h"
#include "ppref/hard/consensus.h"
#include "ppref/hard/world_pool.h"
#include "ppref/infer/internal/dp_plan.h"
#include "ppref/net/client.h"
#include "ppref/net/codec.h"
#include "ppref/net/json.h"
#include "ppref/serve/fingerprint.h"
#include "stats.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ppref::MonotonicNowNs;
using ppref::obs::Stage;
using ppref::obs::TraceRecord;

constexpr unsigned kSetupRepetitions = 9;
/// Extra daemon starts after the window, for first_answer_ms (not on
/// store_restart, whose window is made of daemon starts).
constexpr unsigned kExtraStarts = 41;
/// Resident-set readings of the daemon during the window.
constexpr unsigned kRssReadings = 10;
/// Window figures are medians over this many equal time blocks, so that
/// host contention confined to fewer than half of them does not move them.
/// Odd, so that the median is one block's own figure.
constexpr unsigned kBlocks = 9;

// --- Metric catalogue ------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with --trace 0, on every workload, each over that workload's
/// own requests.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"p50_us", "us"},
    {"p99_us", "us"},          {"throughput_rps", "1/s"},
    {"first_answer_ms", "ms"}, {"cpu_us_per_req", "us"},
    {"peak_rss_mb", "MB"},
};

/// Reported with --trace 1, on every workload (0 where a layer is idle).
constexpr MetricDef kPerLayer[] = {
    {"net.rtt_residual_us", "us"},
    {"net.encode_request_us", "us"},
    {"net.decode_request_us", "us"},
    {"net.encode_response_us", "us"},
    {"net.decode_response_us", "us"},
    {"net.http_p50_us", "us"},
    {"net.http_residual_us", "us"},
    {"net.request_bytes", "bytes"},
    {"serve.envelope_us", "us"},
    {"serve.admission_us", "us"},
    {"serve.dedup_fold_us", "us"},
    {"serve.queue_us", "us"},
    {"serve.scatter_us", "us"},
    {"serve.cache_wait_us", "us"},
    {"serve.result_hit_ratio", "ratio"},
    {"serve.result_lookups", "count"},
    {"serve.plan_hit_ratio", "ratio"},
    {"serve.plan_lookups", "count"},
    {"serve.evictions", "count"},
    {"infer.plan_compile_us", "us"},
    {"infer.dp_execute_us", "us"},
    {"infer.dp_runs_per_req", "count"},
    {"infer.dp_steps_per_req", "count"},
    {"infer.dp_states_per_req", "count"},
    {"infer.ns_per_state", "ns"},
    {"circuit.compile_ms", "ms"},
    {"circuit.nodes", "count"},
    {"circuit.eval_us_per_point", "us"},
    {"circuit.ns_per_node_point", "ns"},
    {"circuit.hit_ratio", "ratio"},
    {"hard.sample_ms", "ms"},
    {"hard.ns_per_world", "ns"},
    {"hard.worlds_per_query", "count"},
    {"hard.target_met_share", "ratio"},
    {"hard.consensus_ns_per_world", "ns"},
    {"store.open_ms", "ms"},
    {"store.load_us", "us"},
    {"store.hit_ratio", "ratio"},
    {"store.flush_ms", "ms"},
    {"store.writes_per_req", "count"},
    {"store.bytes_per_record", "bytes"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.unattributed_share", "ratio"},
};

std::string FormatNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

// --- Client-side samples ---------------------------------------------------

/// A query answered with no expected value yet (fresh stream).
struct Deferred {
  std::unique_ptr<Query> query;
  Reply reply;
};

/// The tail: p99, or the highest percentile with ten samples beyond it
/// when there are fewer than 1000.
double Tail(std::vector<double> values) {
  const double q = std::min(0.99, TailQuantile(values.size()));
  return Quantile(std::move(values), q);
}

struct Samples {
  /// Round trips in µs, by the class each request was sent as, and when
  /// each answer arrived.
  std::vector<double> rtt[kKinds];
  std::vector<std::uint64_t> done_ns[kKinds];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Deferred> deferred;
  /// Trace phase only: client-side re-timing of the codec calls the two
  /// ends make for each binary evaluate request, in µs, and body sizes.
  std::vector<double> encode_request, decode_request, encode_response,
      decode_response, request_bytes;
  /// Every sweep / hard / consensus query sent (pointers into pools or
  /// into `deferred`), for the in-process per-layer timings.
  std::vector<const Query*> side_queries;

  void Merge(Samples&& other) {
    for (unsigned k = 0; k < kKinds; ++k) {
      rtt[k].insert(rtt[k].end(), other.rtt[k].begin(), other.rtt[k].end());
      done_ns[k].insert(done_ns[k].end(), other.done_ns[k].begin(),
                        other.done_ns[k].end());
    }
    attempted += other.attempted;
    failed += other.failed;
    for (Deferred& d : other.deferred) deferred.push_back(std::move(d));
    for (auto [dst, src] :
         {std::pair{&encode_request, &other.encode_request},
          std::pair{&decode_request, &other.decode_request},
          std::pair{&encode_response, &other.encode_response},
          std::pair{&decode_response, &other.decode_response},
          std::pair{&request_bytes, &other.request_bytes}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    side_queries.insert(side_queries.end(), other.side_queries.begin(),
                        other.side_queries.end());
  }

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const auto& v : rtt) n += v.size();
    return n;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ElapsedUs(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

std::optional<ppref::net::Client> ConnectClient(int port) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto connected = ppref::net::Client::Connect("127.0.0.1", port);
    if (connected.ok()) return std::move(connected).value();
    usleep(10 * 1000);
  }
  return std::nullopt;
}

bool ParseHttpReply(const ppref::net::HttpResult& result, Reply* reply) {
  if (result.status_code != 200) return false;
  const auto root = ppref::net::ParseJson(result.body);
  if (!root.ok()) return false;
  const ppref::net::JsonValue* status = root->Find("status");
  const ppref::net::JsonValue* probability = root->Find("probability");
  if (status == nullptr || status->string != "OK" || probability == nullptr ||
      !probability->IsNumber()) {
    return false;
  }
  reply->probability = probability->number;
  if (const ppref::net::JsonValue* matching = root->Find("top_matching");
      matching != nullptr && matching->IsArray()) {
    ppref::infer::Matching items;
    for (const ppref::net::JsonValue& item : matching->array) {
      items.push_back(static_cast<ppref::rim::ItemId>(item.number));
    }
    reply->top_matching = std::move(items);
  }
  return true;
}

/// Sends one query and fills `reply`. False on a transport error or a
/// non-OK status. The round trip goes to `*rtt_us`.
bool Issue(ppref::net::Client& client, int port, Kind slot, const Query& query,
           Reply* reply, double* rtt_us, Samples* codec) {
  switch (slot) {
    case Kind::kEval: {
      if (codec != nullptr) {
        const std::uint64_t t0 = MonotonicNowNs();
        const std::string body = ppref::net::EncodeRequest(*query.eval);
        const std::uint64_t t1 = MonotonicNowNs();
        const bool decoded = ppref::net::DecodeRequest(body).ok();
        const std::uint64_t t2 = MonotonicNowNs();
        if (!decoded) return false;
        codec->encode_request.push_back(ElapsedUs(t0, t1));
        codec->decode_request.push_back(ElapsedUs(t1, t2));
        codec->request_bytes.push_back(static_cast<double>(body.size()));
      }
      const std::uint64_t start = MonotonicNowNs();
      const auto response = client.Call(*query.eval);
      *rtt_us = ElapsedUs(start, MonotonicNowNs());
      if (!response.ok() || !response->status.ok()) return false;
      reply->probability = response->probability;
      reply->top_matching = response->top_matching;
      if (codec != nullptr) {
        const std::uint64_t t0 = MonotonicNowNs();
        const std::string body = ppref::net::EncodeResponse(*response);
        const std::uint64_t t1 = MonotonicNowNs();
        const bool decoded = ppref::net::DecodeResponse(body).ok();
        const std::uint64_t t2 = MonotonicNowNs();
        if (!decoded) return false;
        codec->encode_response.push_back(ElapsedUs(t0, t1));
        codec->decode_response.push_back(ElapsedUs(t1, t2));
      }
      return true;
    }
    case Kind::kHttp: {
      const std::uint64_t start = MonotonicNowNs();
      const auto result = ppref::net::HttpFetch("127.0.0.1", port, "POST",
                                                "/query", query.http_body);
      *rtt_us = ElapsedUs(start, MonotonicNowNs());
      return result.ok() && ParseHttpReply(*result, reply);
    }
    case Kind::kSweep: {
      const std::uint64_t start = MonotonicNowNs();
      const auto response = client.CallSweep(*query.sweep);
      *rtt_us = ElapsedUs(start, MonotonicNowNs());
      if (!response.ok() || !response->status.ok()) return false;
      reply->probabilities = response->probabilities;
      return true;
    }
    case Kind::kHard: {
      const std::uint64_t start = MonotonicNowNs();
      const auto response = client.CallHard(*query.hard);
      *rtt_us = ElapsedUs(start, MonotonicNowNs());
      if (!response.ok() || !response->status.ok()) return false;
      reply->hard = *response;
      return true;
    }
    case Kind::kConsensus: {
      const std::uint64_t start = MonotonicNowNs();
      const auto response = client.CallConsensus(*query.consensus);
      *rtt_us = ElapsedUs(start, MonotonicNowNs());
      if (!response.ok() || !response->status.ok()) return false;
      reply->consensus = *response;
      return true;
    }
  }
  return false;
}

/// One closed-loop connection: issue queries until `deadline_ns` or
/// `max_requests`, checking each answer whose expected value is known.
void DriveConnection(Generator& generator, Generator::Cursor& cursor, int port,
                     std::uint64_t deadline_ns, std::uint64_t max_requests,
                     bool trace_codec, Samples* samples) {
  std::optional<ppref::net::Client> client = ConnectClient(port);
  if (!client) {
    ++samples->attempted;
    ++samples->failed;
    return;
  }
  for (std::uint64_t i = 0; i < max_requests && MonotonicNowNs() < deadline_ns;
       ++i) {
    Kind slot = Kind::kEval;
    std::unique_ptr<Query> fresh;
    const Query* query = generator.Next(cursor, &slot, &fresh);
    Reply reply;
    double rtt_us = 0.0;
    ++samples->attempted;
    if (!Issue(*client, port, slot, *query, &reply, &rtt_us,
               trace_codec && slot == Kind::kEval ? samples : nullptr)) {
      ++samples->failed;
      // A broken connection would fail every later request; reconnect.
      client = ConnectClient(port);
      if (!client) return;
      continue;
    }
    samples->rtt[static_cast<unsigned>(slot)].push_back(rtt_us);
    samples->done_ns[static_cast<unsigned>(slot)].push_back(MonotonicNowNs());
    if (slot != Kind::kEval && slot != Kind::kHttp) {
      samples->side_queries.push_back(fresh ? fresh.get() : query);
    }
    if (query->has_expected) {
      if (!Matches(*query, reply)) ++samples->failed;
    } else {
      samples->deferred.push_back(Deferred{std::move(fresh), std::move(reply)});
    }
  }
}

/// All connections of a workload in parallel, one thread each, merged.
/// `while_driving` runs on the calling thread meanwhile.
template <typename F>
Samples Drive(const WorkloadSpec& spec, Generator& generator,
              std::vector<Generator::Cursor>& cursors, int port,
              std::uint64_t deadline_ns, std::uint64_t max_requests,
              bool trace_codec, F while_driving) {
  std::vector<Samples> per(spec.connections);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&, c] {
      DriveConnection(generator, cursors[c], port, deadline_ns, max_requests,
                      trace_codec, &per[c]);
    });
  }
  while_driving();
  for (std::thread& thread : threads) thread.join();
  Samples merged;
  for (Samples& s : per) merged.Merge(std::move(s));
  return merged;
}

// --- Daemon lifetimes ------------------------------------------------------

/// Counter movement over the measured part of one or more daemon lifetimes.
struct Totals {
  std::uint64_t cpu_ns = 0;
  /// Largest resident set seen at a snapshot.
  std::uint64_t peak_rss_kb = 0;
  ppref::serve::ServerStats delta;  // after - before, summed over daemons
  std::uint64_t dp_runs = 0, dp_steps = 0, dp_states = 0;
  // Lifetime values of the last daemon (compile counters include set-up).
  std::uint64_t circuit_compiles = 0, circuit_compile_ns = 0;
  std::uint64_t store_flushes = 0, store_flush_ns = 0;
  std::uint64_t store_disk_bytes = 0, store_records = 0;
  std::vector<double> store_open_ms;

  void Add(const Snapshot& before, const Snapshot& after) {
    cpu_ns += after.cpu_ns - before.cpu_ns;
    peak_rss_kb = std::max(peak_rss_kb, after.rss_kb);
    const auto& a = after.server;
    const auto& b = before.server;
    auto add_cache = [](ppref::serve::CacheStats& dst,
                        const ppref::serve::CacheStats& x,
                        const ppref::serve::CacheStats& y) {
      dst.hits += x.hits - y.hits;
      dst.misses += x.misses - y.misses;
      dst.insertions += x.insertions - y.insertions;
      dst.evictions += x.evictions - y.evictions;
    };
    add_cache(delta.plan_cache, a.plan_cache, b.plan_cache);
    add_cache(delta.result_cache, a.result_cache, b.result_cache);
    add_cache(delta.circuit_cache, a.circuit_cache, b.circuit_cache);
    delta.sweep_points += a.sweep_points - b.sweep_points;
    delta.circuit_eval_ns += a.circuit_eval_ns - b.circuit_eval_ns;
    delta.execute_ns += a.execute_ns - b.execute_ns;
    delta.store_hits += a.store_hits - b.store_hits;
    delta.store_misses += a.store_misses - b.store_misses;
    delta.store_load_ns += a.store_load_ns - b.store_load_ns;
    delta.store_writes += a.store_writes - b.store_writes;
    dp_runs += after.dp_runs - before.dp_runs;
    dp_steps += after.dp_steps - before.dp_steps;
    dp_states += after.dp_states - before.dp_states;
    circuit_compiles = a.circuit_compiles;
    circuit_compile_ns = a.circuit_compile_ns;
    store_flushes = after.store.flushes;
    store_flush_ns = after.store.flush_ns;
    store_disk_bytes = after.store.disk_bytes;
    store_records = after.store.records;
  }
};

/// Everything a run records for one phase (the untraced run, or one half
/// of a traced run).
struct Phase {
  Samples samples;
  Totals totals;
  std::vector<double> setup_s;
  /// Daemon start to first answer, per start that counts (see Runner::Run).
  std::vector<double> first_answer_ms;
  /// Resident-set readings taken.
  std::size_t rss_readings = 0;
  /// Probes answered inside the window (store_restart: one per restart).
  std::uint64_t window_probes = 0;
  std::vector<TraceRecord> traces;
  /// The window runs [window_start_ns, window_end_ns): requests are sent
  /// until its end, and the blocks cut it.
  std::uint64_t window_start_ns = 0, window_end_ns = 0;
  double window_s = 0.0;
  double client_cpu_s = 0.0;
  bool ok = true;
  std::string error;
};

std::uint64_t ProcessCpuNs() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return static_cast<std::uint64_t>(cpu.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(cpu.tv_nsec);
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, Generator& generator, std::string run_dir)
      : spec_(spec), generator_(generator), run_dir_(std::move(run_dir)) {}

  /// Set-up `repetitions` times (each from a clean store), then the timed
  /// window. Every daemon start that opens the state the workload measures
  /// counts for first_answer_ms: on store_restart the restarts over the
  /// populated store (not set-up, which starts from an empty one); on the
  /// others the set-ups plus `extra_starts` more starts after the window.
  /// `trace` runs the daemon with every request sampled.
  Phase Run(double seconds, unsigned repetitions, unsigned extra_starts,
            bool trace) {
    Phase phase;
    DaemonProcess daemon;
    DaemonConfig config;
    config.plan_capacity = spec_.plan_capacity;
    config.result_capacity = spec_.result_capacity;
    config.trace = trace;
    if (spec_.store) config.store_dir = run_dir_ + "/store";
    const bool restarts = spec_.cycle_requests > 0;

    for (unsigned rep = 0; rep < repetitions; ++rep) {
      if (daemon.running()) {
        Snapshot ignored;
        if (!daemon.Quit(&ignored)) return Failed(std::move(phase), "daemon did not drain");
      }
      std::error_code ec;
      if (spec_.store) std::filesystem::remove_all(config.store_dir, ec);
      const std::uint64_t start = MonotonicNowNs();
      double first_ms = 0.0;
      if (!StartWarm(config, &daemon, &phase, &first_ms)) return phase;
      if (!restarts) phase.first_answer_ms.push_back(first_ms);
      if (restarts) {
        Snapshot ignored;
        if (!daemon.Quit(&ignored)) return Failed(std::move(phase), "populate did not drain");
      }
      phase.setup_s.push_back(static_cast<double>(MonotonicNowNs() - start) /
                              1e9);
    }

    std::vector<Generator::Cursor> cursors;
    for (unsigned c = 0; c < spec_.connections; ++c) {
      cursors.push_back(generator_.MakeCursor(c));
    }
    const std::uint64_t cpu_start = ProcessCpuNs();
    const std::uint64_t window_start = MonotonicNowNs();
    const std::uint64_t deadline =
        window_start + static_cast<std::uint64_t>(seconds * 1e9);
    phase.window_start_ns = window_start;
    phase.window_end_ns = deadline;
    if (!restarts) {
      // One daemon; the calling thread reads its resident set at even
      // steps while the connection threads drive it.
      Snapshot first;
      if (!daemon.Snap(&first, nullptr)) {
        return Failed(std::move(phase), "snapshot failed");
      }
      bool snapped = true;
      phase.samples = Drive(spec_, generator_, cursors, daemon.port(), deadline,
                            UINT64_MAX, trace, [&] {
        for (unsigned i = 1; i < kRssReadings; ++i) {
          const std::uint64_t edge =
              window_start + (deadline - window_start) * i / kRssReadings;
          const std::uint64_t now = MonotonicNowNs();
          if (edge > now) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(edge - now));
          }
          Snapshot reading;
          snapped = daemon.Snap(&reading, nullptr) && snapped;
          phase.totals.peak_rss_kb = std::max(phase.totals.peak_rss_kb, reading.rss_kb);
          ++phase.rss_readings;
        }
      });
      Snapshot last;
      if (!snapped || !daemon.Snap(&last, trace ? &phase.traces : nullptr)) {
        return Failed(std::move(phase), "snapshot failed");
      }
      phase.window_s = static_cast<double>(last.mono_ns - window_start) / 1e9;
      phase.totals.Add(first, last);
      ++phase.rss_readings;
      std::erase_if(phase.traces, [&](const TraceRecord& r) {
        return r.start_ns < first.mono_ns;
      });
      Snapshot final_snap;
      if (!daemon.Quit(&final_snap)) return Failed(std::move(phase), "daemon did not drain");
      for (unsigned i = 0; i < extra_starts; ++i) {
        std::error_code ec;
        if (spec_.store) std::filesystem::remove_all(config.store_dir, ec);
        double first_ms = 0.0;
        if (!StartProbe(config, &daemon, &phase, &first_ms)) return phase;
        phase.first_answer_ms.push_back(first_ms);
        if (!daemon.Quit(&final_snap)) return Failed(std::move(phase), "daemon did not drain");
      }
    } else {
      // Restart cycles: each daemon opens the populated store, answers its
      // probe, serves one slice of the draw and drains.
      while (MonotonicNowNs() < deadline) {
        double first_ms = 0.0;
        if (!StartProbe(config, &daemon, &phase, &first_ms)) return phase;
        phase.first_answer_ms.push_back(first_ms);
        ++phase.window_probes;
        phase.samples.Merge(Drive(spec_, generator_, cursors, daemon.port(),
                                  deadline, spec_.cycle_requests, trace, [] {}));
        std::vector<TraceRecord> traces;
        Snapshot after;
        if (trace && !daemon.Snap(&after, &traces)) {
          return Failed(std::move(phase), "snapshot failed");
        }
        phase.traces.insert(phase.traces.end(), traces.begin(), traces.end());
        Snapshot final_snap;
        if (!daemon.Quit(&final_snap)) return Failed(std::move(phase), "daemon did not drain");
        // Whole lives: start-up and drain are part of this workload's cost.
        phase.totals.Add(Snapshot{}, final_snap);
        ++phase.rss_readings;
      }
      phase.window_s = static_cast<double>(MonotonicNowNs() - window_start) / 1e9;
    }
    phase.client_cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e9;
    return phase;
  }

 private:
  static void Fail(Phase& phase, const std::string& why) {
    phase.ok = false;
    if (phase.error.empty()) phase.error = why;
  }
  static Phase Failed(Phase&& phase, const std::string& why) {
    Fail(phase, why);
    return phase;
  }

  /// Spawns a daemon and sends the probe, the first answer of its life;
  /// `*first_ms` is the time from the daemon's start to that answer.
  bool StartProbe(const DaemonConfig& config, DaemonProcess* daemon,
                  Phase* phase, double* first_ms) {
    if (!daemon->Spawn(config)) {
      Fail(*phase, "daemon did not start");
      return false;
    }
    if (spec_.store) {
      phase->totals.store_open_ms.push_back(
          static_cast<double>(daemon->hello().store_open_ns) / 1e6);
    }
    std::optional<ppref::net::Client> client = ConnectClient(daemon->port());
    const Query& probe = generator_.probe();
    Reply reply;
    double rtt_us = 0.0;
    if (!client || !Issue(*client, daemon->port(), probe.kind, probe, &reply,
                          &rtt_us, nullptr) ||
        !Matches(probe, reply)) {
      Fail(*phase, "probe failed");
      return false;
    }
    *first_ms =
        static_cast<double>(MonotonicNowNs() - daemon->hello().start_ns) / 1e6;
    return true;
  }

  /// StartProbe plus every pooled query once.
  bool StartWarm(const DaemonConfig& config, DaemonProcess* daemon,
                 Phase* phase, double* first_ms) {
    if (!StartProbe(config, daemon, phase, first_ms)) return false;
    std::optional<ppref::net::Client> client = ConnectClient(daemon->port());
    if (!client) {
      Fail(*phase, "connect failed");
      return false;
    }
    for (const Query* query : generator_.WarmSet()) {
      Reply reply;
      double rtt_us = 0.0;
      if (!Issue(*client, daemon->port(), query->kind, *query, &reply, &rtt_us,
                 nullptr) ||
          !Matches(*query, reply)) {
        Fail(*phase, std::string("warm-up ") + KindName(query->kind) +
                         " query failed");
        return false;
      }
    }
    return true;
  }

  const WorkloadSpec& spec_;
  Generator& generator_;
  std::string run_dir_;
};

/// Computes the deferred oracles, one query per task over every hardware
/// thread (the window is over, so this perturbs nothing), and counts
/// mismatches into `samples`.
void CheckDeferred(Samples& samples, ppref::serve::Server& oracle) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < samples.deferred.size(); i = next++) {
        Deferred& d = samples.deferred[i];
        ComputeExpected(*d.query, oracle);
        if (!Matches(*d.query, d.reply)) ++mismatches;
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  samples.failed += mismatches;
}

// --- Host facts --------------------------------------------------------------

double SpinSeconds(unsigned threads) {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const std::uint64_t start = MonotonicNowNs();
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t] {
      std::uint64_t x = t + 1;
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return static_cast<double>(MonotonicNowNs() - start) / 1e9;
}

// --- Per-layer breakdown -----------------------------------------------------

/// Only the evaluate path (`Server::EvaluateBatch`) sets the dedup-fold and
/// scatter stages. (Sweep records cannot be told apart by their circuit-eval
/// stage: that span closes after the record is published, so it reads 0.)
bool IsEvaluateTrace(const TraceRecord& r) {
  return r.stage_ns[static_cast<unsigned>(Stage::kDedupFold)] > 0 ||
         r.stage_ns[static_cast<unsigned>(Stage::kScatter)] > 0;
}

std::map<std::string, double> PerLayer(const WorkloadSpec& spec,
                                       const Phase& untraced,
                                       const Phase& traced) {
  std::map<std::string, double> out;
  const Samples& s = traced.samples;
  const Totals& t = traced.totals;
  const auto& d = t.delta;
  const unsigned eval = static_cast<unsigned>(Kind::kEval);
  const unsigned http = static_cast<unsigned>(Kind::kHttp);

  // Serve stages over the evaluate requests the traced window sent.
  double envelope = 0, stage_sum = 0, stage_mean[ppref::obs::kStageCount] = {};
  std::size_t records = 0;
  for (const TraceRecord& r : traced.traces) {
    if (!IsEvaluateTrace(r)) continue;
    ++records;
    envelope += static_cast<double>(r.TotalNs());
    for (unsigned i = 0; i < ppref::obs::kStageCount; ++i) {
      stage_mean[i] += static_cast<double>(r.stage_ns[i]);
    }
  }
  const double per = records > 0 ? 1.0 / (1000.0 * records) : 0.0;
  envelope *= per;
  for (double& v : stage_mean) {
    v *= per;
    stage_sum += v;
  }
  auto stage = [&](Stage st) { return stage_mean[static_cast<unsigned>(st)]; };

  const double rtt = Mean(s.rtt[eval]);
  const double codec = Mean(s.encode_request) + Mean(s.decode_request) +
                       Mean(s.encode_response) + Mean(s.decode_response);
  out["net.rtt_residual_us"] = rtt - envelope - codec;
  out["net.encode_request_us"] = Mean(s.encode_request);
  out["net.decode_request_us"] = Mean(s.decode_request);
  out["net.encode_response_us"] = Mean(s.encode_response);
  out["net.decode_response_us"] = Mean(s.decode_response);
  out["net.http_p50_us"] = Median(s.rtt[http]);
  out["net.http_residual_us"] =
      s.rtt[http].empty() ? 0.0 : Mean(s.rtt[http]) - envelope;
  out["net.request_bytes"] = Mean(s.request_bytes);

  out["serve.envelope_us"] = envelope;
  out["serve.admission_us"] = stage(Stage::kAdmission);
  out["serve.dedup_fold_us"] = stage(Stage::kDedupFold);
  out["serve.queue_us"] = stage(Stage::kQueue);
  out["serve.scatter_us"] = stage(Stage::kScatter);
  out["serve.cache_wait_us"] = stage(Stage::kCacheWait);
  const double result_lookups =
      static_cast<double>(d.result_cache.hits + d.result_cache.misses);
  const double plan_lookups =
      static_cast<double>(d.plan_cache.hits + d.plan_cache.misses);
  out["serve.result_hit_ratio"] =
      Ratio(static_cast<double>(d.result_cache.hits), result_lookups);
  out["serve.result_lookups"] = result_lookups;
  out["serve.plan_hit_ratio"] =
      Ratio(static_cast<double>(d.plan_cache.hits), plan_lookups);
  out["serve.plan_lookups"] = plan_lookups;
  out["serve.evictions"] =
      static_cast<double>(d.result_cache.evictions + d.plan_cache.evictions);

  const double evaluates = static_cast<double>(s.rtt[eval].size() +
                                               s.rtt[http].size());
  out["infer.plan_compile_us"] = stage(Stage::kPlanCompile);
  out["infer.dp_execute_us"] = stage(Stage::kDpExecute);
  out["infer.dp_runs_per_req"] = Ratio(static_cast<double>(t.dp_runs), evaluates);
  out["infer.dp_steps_per_req"] = Ratio(static_cast<double>(t.dp_steps), evaluates);
  out["infer.dp_states_per_req"] =
      Ratio(static_cast<double>(t.dp_states), evaluates);
  out["infer.ns_per_state"] = Ratio(static_cast<double>(d.execute_ns),
                                    static_cast<double>(t.dp_states));

  // Circuit sizes: compile each distinct sweep shape in process.
  std::map<std::uint64_t, double> nodes_by_shape;
  double node_points = 0, node_sum = 0, sweeps = 0;
  std::vector<const Query*> hard_queries, consensus_queries;
  for (const Query* q : s.side_queries) {
    if (q->kind == Kind::kHard) hard_queries.push_back(q);
    if (q->kind == Kind::kConsensus) consensus_queries.push_back(q);
    if (q->kind != Kind::kSweep) continue;
    const auto& sweep = *q->sweep;
    const std::uint64_t key = ppref::serve::CircuitKey(sweep.model, sweep.pattern);
    auto it = nodes_by_shape.find(key);
    if (it == nodes_by_shape.end()) {
      const ppref::infer::internal::DpPlan plan(sweep.model, sweep.pattern, {});
      it = nodes_by_shape
               .emplace(key, static_cast<double>(
                                 ppref::circuit::CompilePatternProb(plan).size()))
               .first;
    }
    node_sum += it->second;
    node_points += it->second * static_cast<double>(sweep.params.size());
    ++sweeps;
  }
  out["circuit.compile_ms"] = Ratio(static_cast<double>(t.circuit_compile_ns) / 1e6,
                                    static_cast<double>(t.circuit_compiles));
  out["circuit.nodes"] = Ratio(node_sum, sweeps);
  out["circuit.eval_us_per_point"] =
      Ratio(static_cast<double>(d.circuit_eval_ns) / 1000.0,
            static_cast<double>(d.sweep_points));
  out["circuit.ns_per_node_point"] =
      Ratio(static_cast<double>(d.circuit_eval_ns), node_points);
  out["circuit.hit_ratio"] =
      Ratio(static_cast<double>(d.circuit_cache.hits),
            static_cast<double>(d.circuit_cache.hits + d.circuit_cache.misses));

  // Hard tier: time the library calls in process on up to 8 of the sent
  // queries, with the server's default sampling options.
  const ppref::serve::ServerOptions defaults;
  double hard_ns = 0, hard_worlds = 0, hard_met = 0, hard_n = 0;
  for (std::size_t i = 0; i < hard_queries.size() && i < 8; ++i) {
    const auto& wire = *hard_queries[i]->hard;
    ppref::hard::AdaptiveOptions options;
    options.target_half_width = wire.target_half_width;
    options.z = defaults.hard_z;
    options.min_samples = defaults.hard_min_samples;
    options.max_samples = defaults.hard_max_samples;
    options.block_samples = defaults.hard_block_samples;
    options.seed = i + 1;
    const std::uint64_t start = MonotonicNowNs();
    const auto estimates = ppref::hard::EstimatePatternProbsPooled(
        wire.model, {&wire.pattern}, options);
    hard_ns += static_cast<double>(MonotonicNowNs() - start);
    hard_worlds += static_cast<double>(estimates.front().n_samples);
    hard_met += estimates.front().target_met ? 1 : 0;
    ++hard_n;
  }
  out["hard.sample_ms"] = Ratio(hard_ns / 1e6, hard_n);
  out["hard.ns_per_world"] = Ratio(hard_ns, hard_worlds);
  out["hard.worlds_per_query"] = Ratio(hard_worlds, hard_n);
  out["hard.target_met_share"] = Ratio(hard_met, hard_n);
  double consensus_ns = 0, consensus_worlds = 0;
  for (std::size_t i = 0; i < consensus_queries.size() && i < 8; ++i) {
    ppref::hard::ConsensusOptions options;
    options.samples = defaults.consensus_samples;
    options.block_samples = defaults.hard_block_samples;
    options.seed = i + 1;
    const std::uint64_t start = MonotonicNowNs();
    const auto result = ppref::hard::ConsensusRanking(
        consensus_queries[i]->consensus->model.model(), options);
    consensus_ns += static_cast<double>(MonotonicNowNs() - start);
    consensus_worlds += static_cast<double>(result.n_samples);
  }
  out["hard.consensus_ns_per_world"] = Ratio(consensus_ns, consensus_worlds);

  out["store.open_ms"] = Mean(t.store_open_ms);
  out["store.load_us"] = Ratio(static_cast<double>(d.store_load_ns) / 1000.0,
                               static_cast<double>(d.store_hits));
  out["store.hit_ratio"] =
      Ratio(static_cast<double>(d.store_hits),
            static_cast<double>(d.store_hits + d.store_misses));
  out["store.flush_ms"] = Ratio(static_cast<double>(t.store_flush_ns) / 1e6,
                                static_cast<double>(t.store_flushes));
  out["store.writes_per_req"] = Ratio(static_cast<double>(d.store_writes),
                                      static_cast<double>(s.completed()));
  out["store.bytes_per_record"] = Ratio(static_cast<double>(t.store_disk_bytes),
                                        static_cast<double>(t.store_records));

  const unsigned primary = static_cast<unsigned>(spec.kind);
  const double p50_untraced = Median(untraced.samples.rtt[primary]);
  const double p50_traced = Median(s.rtt[primary]);
  out["obs.trace_overhead_pct"] =
      100.0 * Ratio(p50_traced - p50_untraced, p50_untraced);
  out["bench.unattributed_share"] = Ratio(envelope - stage_sum, rtt);

  if (records > 0) {
    std::printf("layers: binary evaluate round trip %.2f us = codec %.2f + "
                "serve stages %.2f + serve glue %.2f + net residual %.2f "
                "(%zu traced requests)\n",
                rtt, codec, stage_sum, envelope - stage_sum,
                out["net.rtt_residual_us"], records);
  }
  return out;
}

// --- Run ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

void PrintPhase(const char* label, const Phase& phase) {
  std::printf("%s: window %.3f s wall, client cpu %.3f s, daemon cpu %.3f s, "
              "%llu attempted, %llu failed\n",
              label, phase.window_s, phase.client_cpu_s,
              static_cast<double>(phase.totals.cpu_ns) / 1e9,
              static_cast<unsigned long long>(phase.samples.attempted),
              static_cast<unsigned long long>(phase.samples.failed));
  for (unsigned k = 0; k < kKinds; ++k) {
    const std::vector<double>& v = phase.samples.rtt[k];
    if (v.empty()) continue;
    // The highest percentile with ten samples beyond it, uncapped (p99_us
    // stops at p99).
    const double tail = TailQuantile(v.size());
    std::printf("  %-9s n=%-7zu p50 %10.1f us  p%-6g %10.1f us\n",
                KindName(static_cast<Kind>(k)), v.size(), Median(v), 100 * tail,
                Quantile(v, tail));
  }
  const std::vector<double>& first = phase.first_answer_ms;
  std::printf("  first answer: %zu starts, min %.3f / p25 %.3f / p50 %.3f / "
              "p75 %.3f / max %.3f ms\n",
              first.size(), Quantile(first, 0.0), Quantile(first, 0.25),
              Median(first), Quantile(first, 0.75), Quantile(first, 1.0));
}

/// The time block of [start, end) cut into `blocks` that `t` falls in (an
/// answer to a request sent just before the end goes in the last one).
unsigned BlockOf(std::uint64_t t, const Phase& p, unsigned blocks) {
  if (t <= p.window_start_ns) return 0;
  const std::uint64_t index = (t - p.window_start_ns) * blocks /
                              (p.window_end_ns - p.window_start_ns);
  return static_cast<unsigned>(std::min<std::uint64_t>(index, blocks - 1));
}

/// The median over time blocks of `stat` of the round trips of `kind`
/// answered in each block. The window is cut into as many of kBlocks blocks
/// as give each about `min_per_block` answers (an odd number, at least one).
template <typename Stat>
double BlockMedian(const Phase& p, Kind kind, std::size_t min_per_block,
                   Stat stat) {
  const std::vector<double>& rtt = p.samples.rtt[static_cast<unsigned>(kind)];
  const std::vector<std::uint64_t>& done =
      p.samples.done_ns[static_cast<unsigned>(kind)];
  auto blocks = static_cast<unsigned>(
      std::clamp<std::size_t>(rtt.size() / min_per_block, 1, kBlocks));
  if (blocks % 2 == 0) --blocks;
  std::vector<std::vector<double>> per_block(blocks);
  for (std::size_t i = 0; i < rtt.size(); ++i) {
    per_block[BlockOf(done[i], p, blocks)].push_back(rtt[i]);
  }
  std::vector<double> stats;
  for (std::vector<double>& block : per_block) {
    if (!block.empty()) stats.push_back(stat(std::move(block)));
  }
  return Median(std::move(stats));
}

/// The median over the kBlocks time blocks of answers per second, each
/// block timed from its first answer to its last (a count over the fixed
/// block length would read the same on runs that answer alike).
double BlockThroughput(const Phase& p) {
  std::vector<std::uint64_t> first(kBlocks, UINT64_MAX), last(kBlocks, 0);
  std::vector<double> answers(kBlocks, 0.0);
  for (const auto& done : p.samples.done_ns) {
    for (const std::uint64_t t : done) {
      const unsigned b = BlockOf(t, p, kBlocks);
      first[b] = std::min(first[b], t);
      last[b] = std::max(last[b], t);
      answers[b] += 1.0;
    }
  }
  std::vector<double> rates;
  for (unsigned b = 0; b < kBlocks; ++b) {
    if (answers[b] < 2) continue;
    rates.push_back((answers[b] - 1.0) * 1e9 /
                    static_cast<double>(last[b] - first[b]));
  }
  return Median(std::move(rates));
}

/// The end-to-end metrics, each over the workload's own requests, and the
/// number of samples behind each.
std::map<std::string, double> EndToEnd(const WorkloadSpec& spec,
                                       const Phase& p,
                                       std::map<std::string, double>* counts) {
  const std::vector<double>& rtts =
      p.samples.rtt[static_cast<unsigned>(spec.kind)];
  // Daemon CPU covers every answer: the workload's requests (warm_rtt's
  // HTTP share included) and store_restart's per-restart probes.
  const double answered =
      static_cast<double>(p.samples.completed() + p.window_probes);
  std::map<std::string, double> values;
  values["setup_s"] = Median(p.setup_s);
  values["p50_us"] = BlockMedian(p, spec.kind, 50, [](std::vector<double> v) {
    return Median(std::move(v));
  });
  values["p99_us"] = BlockMedian(p, spec.kind, 1000, Tail);
  values["throughput_rps"] = BlockThroughput(p);
  values["first_answer_ms"] = Median(p.first_answer_ms);
  values["cpu_us_per_req"] =
      Ratio(static_cast<double>(p.totals.cpu_ns) / 1000.0, answered);
  values["peak_rss_mb"] = static_cast<double>(p.totals.peak_rss_kb) / 1024.0;
  *counts = {{"setup_s", static_cast<double>(p.setup_s.size())},
             {"p50_us", static_cast<double>(rtts.size())},
             {"p99_us", static_cast<double>(rtts.size())},
             {"throughput_rps", static_cast<double>(p.samples.completed())},
             {"first_answer_ms", static_cast<double>(p.first_answer_ms.size())},
             {"cpu_us_per_req", answered},
             {"peak_rss_mb", static_cast<double>(p.rss_readings)}};
  return values;
}

int RunMain(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  const std::string run_dir = ".bench_build/run/" + spec->name + "-" +
                              std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 2;
  }

  // The oracle server has the daemon's sampling options (the defaults).
  ppref::serve::Server oracle;
  Generator generator(*spec, args.seed, oracle);
  Runner runner(*spec, generator, run_dir);

  std::vector<Phase> phases;
  if (!args.trace) {
    phases.push_back(
        runner.Run(args.seconds, kSetupRepetitions, kExtraStarts, false));
  } else {
    phases.push_back(runner.Run(args.seconds / 2, 1, 0, false));
    phases.push_back(runner.Run(args.seconds / 2, 1, 0, true));
  }
  std::filesystem::remove_all(run_dir, ec);

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (Phase& phase : phases) {
    CheckDeferred(phase.samples, oracle);
    correct = correct && phase.ok;
    if (!phase.ok) std::printf("error: %s\n", phase.error.c_str());
    attempted += phase.samples.attempted;
    failed += phase.samples.failed;
  }
  correct = correct && failed == 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    PrintPhase(args.trace ? (i == 0 ? "untraced" : "traced") : "window",
               phases[i]);
  }

  std::map<std::string, double> counts;
  const std::map<std::string, double> values =
      args.trace ? PerLayer(*spec, phases[0], phases[1])
                 : EndToEnd(*spec, phases[0], &counts);
  if (!args.trace) {
    std::string line;
    for (const MetricDef& def : kEndToEnd) {
      line += std::string(line.empty() ? "" : ", ") + "\"" + def.name +
              "\": " + FormatNumber(counts.at(def.name));
    }
    std::printf("samples: {%s}\n", line.c_str());
  }
  const double spin1 = SpinSeconds(1);
  const double spin4 = SpinSeconds(4);
  std::printf("host: {\"nproc\": %ld, \"spin_1_thread_s\": %.4f, "
              "\"spin_4_threads_s\": %.4f, \"usable_cores\": %.2f, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"git_sha\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"failed_share\": %.6f}\n",
              sysconf(_SC_NPROCESSORS_ONLN), spin1, spin4, 4.0 * spin1 / spin4,
              __VERSION__, PERFBENCH_BUILD_TYPE, args.git_sha.c_str(),
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) json += ", ";
    json += std::string("\"") + defs[i].name + "\": {\"value\": " +
            FormatNumber(values.at(defs[i].name)) + ", \"unit\": \"" +
            defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- Self-test -----------------------------------------------------------------

int Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

/// Encoded bytes of the first `n` queries a workload sends under `seed`.
std::vector<std::string> EncodedStream(const WorkloadSpec& spec,
                                       std::uint64_t seed, std::size_t n,
                                       ppref::serve::Server& oracle) {
  Generator generator(spec, seed, oracle);
  Generator::Cursor cursor = generator.MakeCursor(0);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    Kind slot = Kind::kEval;
    std::unique_ptr<Query> fresh;
    const Query* q = generator.Next(cursor, &slot, &fresh);
    if (q->eval) out.push_back(ppref::net::EncodeRequest(*q->eval) + q->http_body);
    if (q->sweep) out.push_back(ppref::net::EncodeSweepRequest(*q->sweep));
    if (q->hard) out.push_back(ppref::net::EncodeHardRequest(*q->hard));
    if (q->consensus) {
      out.push_back(ppref::net::EncodeConsensusRequest(*q->consensus));
    }
  }
  return out;
}

int SelfTest() {
  int failures = 0;
  ppref::serve::Server oracle;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const auto a = EncodedStream(spec, 7, 400, oracle);
    const auto b = EncodedStream(spec, 7, 400, oracle);
    const auto c = EncodedStream(spec, 8, 400, oracle);
    failures += Expect(a == b, spec.name + ": same seed, byte-identical requests");
    failures += Expect(a != c, spec.name + ": another seed, other requests");

    // Each workload sends its own class only (warm_rtt: plus its HTTP share).
    Generator generator(spec, 7, oracle);
    Generator::Cursor cursor = generator.MakeCursor(0);
    std::size_t own = 0, http = 0;
    for (int i = 0; i < 1200; ++i) {
      Kind slot = Kind::kEval;
      std::unique_ptr<Query> fresh;
      generator.Next(cursor, &slot, &fresh);
      own += slot == spec.kind ? 1 : 0;
      http += slot == Kind::kHttp ? 1 : 0;
    }
    const std::size_t want_http = spec.http_every > 0 ? 1200 / spec.http_every : 0;
    failures += Expect(own + http == 1200 && http == want_http,
                       spec.name + ": sends only " + KindName(spec.kind) +
                           (want_http > 0 ? " (and its HTTP share)" : ""));
  }

  // Fresh streams never repeat a query within a run (a generous run length).
  for (const char* name : {"cold_exact", "analytics_sweep", "analytics_hard",
                           "analytics_consensus"}) {
    const WorkloadSpec& spec = *FindWorkload(name);
    Generator generator(spec, 11, oracle);
    Generator::Cursor cursor = generator.MakeCursor(0);
    std::map<Kind, std::vector<std::uint64_t>> keys;
    for (int i = 0; i < 20000; ++i) {
      Kind slot = Kind::kEval;
      std::unique_ptr<Query> fresh;
      const Query* q = generator.Next(cursor, &slot, &fresh);
      if (!fresh) continue;
      std::uint64_t key = 0;
      if (q->eval) key = ppref::serve::PlanKey(q->eval->model, q->eval->pattern, {});
      if (q->hard) key = ppref::serve::PlanKey(q->hard->model, q->hard->pattern, {});
      if (q->consensus) {
        key = ppref::serve::FingerprintLabeledModel(q->consensus->model);
      }
      if (q->sweep) {
        key = std::hash<std::string>{}(ppref::net::EncodeSweepRequest(*q->sweep));
      }
      keys[slot == Kind::kHttp ? Kind::kEval : slot].push_back(key);
    }
    for (auto& [kind, list] : keys) {
      std::sort(list.begin(), list.end());
      const bool unique =
          std::adjacent_find(list.begin(), list.end()) == list.end();
      failures += Expect(unique, std::string(name) + ": " +
                                     std::to_string(list.size()) + " fresh " +
                                     KindName(kind) +
                                     " fingerprints never repeat");
    }
  }

  failures += Expect(TailQuantile(1000) == 0.99, "tail of 1000 samples is p99");
  failures += Expect(TailQuantile(999) == 0.9, "tail of 999 samples is p90");
  failures += Expect(TailQuantile(10000) == 0.999, "tail of 10000 is p99.9");
  failures += Expect(TailQuantile(100000) == 0.9999, "tail of 100000 is p99.99");
  failures += Expect(TailQuantile(100) == 0.9, "tail of 100 samples is p90");
  failures += Expect(TailQuantile(99) == 0.5, "tail of 99 samples is p50");
  failures += Expect(TailQuantile(19) == 0.0, "19 samples support no tail");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  failures += Expect(Quantile(ramp, 0.99) == 990 && Median(ramp) == 500,
                     "nearest-rank quantiles of 1..1000");
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int ListMetrics() {
  for (const auto& [label, defs, n] :
       {std::tuple{"end_to_end", kEndToEnd, std::size(kEndToEnd)},
        std::tuple{"per_layer", kPerLayer, std::size(kPerLayer)}}) {
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("%s %s %s\n", label, defs[i].name, defs[i].unit);
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return ServeMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "self-test") == 0) return SelfTest();
  if (argc >= 2 && std::strcmp(argv[1], "list-metrics") == 0) {
    return ListMetrics();
  }
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: ppref_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  return RunMain(args);
}
