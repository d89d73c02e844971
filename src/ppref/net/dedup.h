/// \file dedup.h
/// \brief `ppref::net` — the idempotent re-execution table.
///
/// A resilient client retries: after a torn connection it cannot know
/// whether the daemon already executed its request, so it sends the same
/// bytes again. Without help, every retry recomputes — wasted work under
/// exactly the overload that caused the retry — and a *degraded* answer
/// (seeded Monte-Carlo) might legally differ between executions. The
/// idempotency table makes re-execution safe and free: requests carrying a
/// client-chosen 64-bit idempotency key are single-flighted by key, and the
/// encoded response bytes are retained for a bounded window so a late retry
/// replays *the* answer — bit-identical — instead of computing *an* answer.
///
/// Three roles come out of `Begin`:
///   kOwner   first arrival; caller computes, then `Publish`es the bytes.
///   kWaiter  the key is being computed right now; caller does nothing —
///            `Publish` returns the waiter's token so the publisher can
///            deliver the same bytes to it (in-flight coalescing).
///   kReplay  the key completed recently; the retained bytes come back
///            immediately (completed-request replay).
///
/// Retention policy is the caller's per-response decision (`retain` on
/// `Publish`): terminal answers — OK, and degraded-but-approximate ones,
/// which are seeded and must stay bit-stable across retries — are retained;
/// transient failures (shed, timed out with nothing to show) are delivered
/// to current waiters but *not* retained, so a later retry gets a fresh
/// execution instead of a cached refusal.
///
/// The caller builds keys; this table treats them as opaque. The daemon
/// folds the wire correlation id, a protocol-plane tag, and the request
/// kind into the key (daemon.cc), so the retained bytes always echo the
/// right id, and neither the binary and HTTP planes — which retain
/// different byte encodings — nor two kinds sharing a key ever alias.
///
/// Thread-safe; one mutex, O(1) operations, no allocation while holding the
/// lock beyond the entry itself. In-flight entries are never evicted (their
/// count is bounded by the worker pool); retained entries evict FIFO past
/// `capacity`.

#ifndef PPREF_NET_DEDUP_H_
#define PPREF_NET_DEDUP_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ppref::obs {
class MetricsRegistry;
class Counter;
}  // namespace ppref::obs

namespace ppref::net {

struct IdempotencyTableOptions {
  /// Retained (completed) entries kept for replay; oldest evict first.
  std::size_t capacity = 4096;
  /// Counters land here when set (ppref_net_idem_*). May be nullptr.
  obs::MetricsRegistry* registry = nullptr;
};

class IdempotencyTable {
 public:
  using Options = IdempotencyTableOptions;

  enum class Role : std::uint8_t { kOwner, kWaiter, kReplay };

  struct Claim {
    Role role = Role::kOwner;
    /// The retained response bytes; set only for kReplay.
    std::string replay_bytes;
  };

  explicit IdempotencyTable(Options options = {});

  /// Registers interest in `key`. `waiter_token` identifies the caller for
  /// completion routing (the daemon passes the connection id); it is only
  /// recorded for kWaiter claims.
  Claim Begin(std::uint64_t key, std::uint64_t waiter_token);

  /// The owner's completion: delivers `bytes` to every waiter (returned as
  /// their tokens, in arrival order) and — when `retain` — keeps the bytes
  /// for later replay. When `!retain` the entry is erased instead, so the
  /// next Begin on this key computes afresh.
  std::vector<std::uint64_t> Publish(std::uint64_t key, std::string bytes,
                                     bool retain);

  /// Point-in-time totals (also exported as counters when a registry was
  /// given). `owner` counts kOwner claims, `coalesced` kWaiter claims,
  /// `replayed` kReplay claims, `evicted` retained entries dropped by the
  /// capacity bound.
  struct Stats {
    std::uint64_t owner = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t replayed = 0;
    std::uint64_t evicted = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    bool done = false;
    std::string bytes;                   // valid once done
    std::vector<std::uint64_t> waiters;  // tokens parked while !done
  };

  Options options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Completion-order queue of retained keys for FIFO eviction. May hold
  /// stale keys (erased by a !retain publish); eviction skips those.
  std::deque<std::uint64_t> retained_fifo_;
  std::size_t retained_count_ = 0;
  Stats stats_;
  obs::Counter* owner_counter_ = nullptr;
  obs::Counter* coalesced_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  obs::Counter* evicted_counter_ = nullptr;
};

}  // namespace ppref::net

#endif  // PPREF_NET_DEDUP_H_
