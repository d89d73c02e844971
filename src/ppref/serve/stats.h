/// \file stats.h
/// \brief The per-server observability surface: a plain struct snapshot.
///
/// Counters answer the capacity-planning questions a serving deployment
/// asks: are plans being reused (plan hit rate), are whole answers being
/// reused (result hit rate), is the cache thrashing (evictions), where do
/// the cycles go (compile vs. execute nanoseconds), and how deep is the
/// instantaneous load (in-flight depth).
///
/// Since the `ppref::obs` subsystem landed, this struct is a *view*: the
/// server's counters live as named instruments in an `obs::MetricsRegistry`
/// (scrapeable as Prometheus text / JSON with latency histograms on top),
/// and `Server::Snapshot()` reads them back into this struct. All counters
/// are cumulative since server construction. A snapshot taken while workers
/// still publish has monitoring consistency (every event counted once,
/// cross-counter skew of the few requests in flight); one taken after the
/// submitting calls returned — e.g. an end-of-run summary — observes all of
/// their updates, because every `Evaluate*` call joins its workers before
/// returning.

#ifndef PPREF_SERVE_STATS_H_
#define PPREF_SERVE_STATS_H_

#include <cstdint>

#include "ppref/serve/lru_cache.h"

namespace ppref::serve {

/// Point-in-time server statistics.
struct ServerStats {
  /// Plan cache: a hit skips DpPlan compilation.
  CacheStats plan_cache;
  /// Result cache: a hit skips the entire DP execution.
  CacheStats result_cache;
  /// Circuit cache: compiled arithmetic circuits keyed on model *structure*
  /// (Π excluded) — a hit answers a whole parameter sweep without touching
  /// the DP again.
  CacheStats circuit_cache;
  /// Hard-tier cache: adaptive Monte-Carlo estimates and consensus rankings,
  /// keyed on (fingerprint, sampling configuration). Only deterministic
  /// answers (target met or budget cap) are ever inserted.
  CacheStats hard_cache;

  /// Requests accepted, via any entry point (batch requests count singly).
  std::uint64_t requests = 0;
  /// Batches accepted via EvaluateBatch.
  std::uint64_t batches = 0;
  /// Requests answered by sharing a duplicate within the same batch.
  std::uint64_t batch_deduped = 0;
  /// Parameter-sweep requests accepted via PatternProbSweep (each counts
  /// once, however many points it carries).
  std::uint64_t sweep_requests = 0;
  /// Parameter points evaluated against a cached circuit.
  std::uint64_t sweep_points = 0;

  // Hard-query tier (ppref/hard/):

  /// Hard adaptive-estimate queries accepted (each pattern of a pooled
  /// batch counts once).
  std::uint64_t hard_requests = 0;
  /// Pooled hard batches accepted via HardPatternProbBatch.
  std::uint64_t hard_batches = 0;
  /// Worlds consumed by freshly sampled hard answers (cache hits add none).
  std::uint64_t hard_samples = 0;
  /// Hard answers that reached their precision target before the cap.
  std::uint64_t hard_target_met = 0;
  /// Hard answers stopped early by a deadline budget (never cached).
  std::uint64_t hard_deadline_limited = 0;
  /// Consensus top-k queries accepted via ConsensusTopK.
  std::uint64_t consensus_requests = 0;

  /// Circuits compiled by this server (circuit-cache misses).
  std::uint64_t circuit_compiles = 0;
  /// Nanoseconds spent compiling circuits.
  std::uint64_t circuit_compile_ns = 0;
  /// Nanoseconds spent evaluating cached circuits over sweep points.
  std::uint64_t circuit_eval_ns = 0;

  /// Nanoseconds spent compiling DpPlans (plan-cache misses).
  std::uint64_t compile_ns = 0;
  /// Nanoseconds spent executing DPs (result-cache misses).
  std::uint64_t execute_ns = 0;

  // Persistent store (all zero unless `ServerOptions::store` is set):

  /// Store records loaded and decoded on a cache miss (warm-from-disk).
  std::uint64_t store_hits = 0;
  /// Cache misses the store could not answer either.
  std::uint64_t store_misses = 0;
  /// Store payloads that failed to decode (treated as misses).
  std::uint64_t store_corrupt = 0;
  /// Nanoseconds spent decoding store records.
  std::uint64_t store_load_ns = 0;
  /// Records written behind to the store (circuits and exact results).
  std::uint64_t store_writes = 0;

  /// Requests currently being served (admitted, not yet answered).
  std::uint64_t in_flight = 0;
  /// High-water mark of `in_flight`.
  std::uint64_t in_flight_peak = 0;

  // Fault-tolerance disposition counters (status entry points only):

  /// Requests shed by admission control (kResourceExhausted before any work).
  std::uint64_t shed = 0;
  /// Requests rejected by validation (kInvalidArgument).
  std::uint64_t invalid = 0;
  /// Requests refused by a size guard (max_pattern_nodes without
  /// degradation, max_consensus_items) with kResourceExhausted.
  std::uint64_t size_refused = 0;
  /// Requests stopped by their deadline mid-computation.
  std::uint64_t deadline_exceeded = 0;
  /// Requests stopped by caller cancellation.
  std::uint64_t cancelled = 0;
  /// Failed requests answered with a Monte-Carlo fallback (approximate).
  std::uint64_t degraded = 0;
  /// Unexpected exceptions mapped to kInternal.
  std::uint64_t internal_errors = 0;
};

}  // namespace ppref::serve

#endif  // PPREF_SERVE_STATS_H_
