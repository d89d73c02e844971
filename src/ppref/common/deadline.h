/// \file deadline.h
/// \brief Monotonic deadlines and cooperative cancellation for long DP runs.
///
/// A `TopProb` DP over a large model can run for seconds; a serving system
/// must be able to stop it mid-flight with bounded latency. The mechanism is
/// cooperative: hot loops carry a `const RunControl*` and periodically call
/// `Check()` (amortized through `StopCheck` so the clock is read once per
/// ~thousand DP entries). When the deadline passes or the caller's
/// `CancellationToken` fires, the check throws `DeadlineExceededError` /
/// `CancelledError`; the exception unwinds through `ParallelFor` (which
/// always joins every worker before rethrowing, so no worker state leaks)
/// and is converted to a `Status` at the serving boundary.
///
/// Deadlines use `std::chrono::steady_clock` — wall-clock adjustments must
/// never extend or shorten a request budget.

#ifndef PPREF_COMMON_DEADLINE_H_
#define PPREF_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace ppref {

/// Thrown by RunControl::Check() when the deadline has passed. Caught at the
/// serving boundary and mapped to StatusCode::kDeadlineExceeded.
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Thrown by RunControl::Check() when the caller's cancellation token has
/// fired. Mapped to StatusCode::kCancelled at the serving boundary.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& message)
      : std::runtime_error(message) {}
};

/// A point on the monotonic clock. Default-constructed deadlines are
/// infinite (never expire), so "no deadline" needs no special casing.
class Deadline {
 public:
  Deadline() = default;

  /// The deadline `ns` nanoseconds from now.
  static Deadline After(std::uint64_t ns) {
    Deadline d;
    d.finite_ = true;
    d.at_ = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
    return d;
  }

  static Deadline Infinite() { return Deadline(); }

  bool IsInfinite() const { return !finite_; }

  bool Expired() const {
    return finite_ && std::chrono::steady_clock::now() >= at_;
  }

  /// Nanoseconds until expiry: 0 once expired, uint64 max when infinite.
  std::uint64_t RemainingNs() const {
    if (!finite_) return std::numeric_limits<std::uint64_t>::max();
    const auto left = at_ - std::chrono::steady_clock::now();
    if (left.count() <= 0) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count());
  }

 private:
  bool finite_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// A one-shot flag a caller flips to stop a run from another thread. Shared
/// by pointer; the pointed-to token must outlive every run observing it.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool Cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The stop conditions of one run: a deadline plus an optional borrowed
/// cancellation token. Passed by `const*` through the DP stack; `nullptr`
/// means "run to completion" and costs nothing on the hot path.
struct RunControl {
  Deadline deadline;
  const CancellationToken* cancel = nullptr;

  /// True once either stop condition holds. Does not throw.
  bool Stopped() const {
    return (cancel != nullptr && cancel->Cancelled()) || deadline.Expired();
  }

  /// Throws CancelledError / DeadlineExceededError once a stop condition
  /// holds (cancellation wins ties — it is the more specific intent).
  void Check() const {
    if (cancel != nullptr && cancel->Cancelled()) {
      throw CancelledError("run cancelled by caller");
    }
    if (deadline.Expired()) {
      throw DeadlineExceededError("run deadline exceeded");
    }
  }
};

/// Amortizes RunControl::Check() over a hot loop: `Tick()` is a decrement
/// and branch except every `stride`-th call, which reads the clock. With the
/// default stride a DP touching ~1e8 entries/s reaches a stop decision
/// within ~10 µs of it holding.
class StopCheck {
 public:
  explicit StopCheck(const RunControl* control, std::uint32_t stride = 1024)
      : control_(control), stride_(stride), countdown_(stride) {}

  void Tick() {
    if (control_ == nullptr) return;
    if (--countdown_ != 0) return;
    countdown_ = stride_;
    control_->Check();
  }

 private:
  const RunControl* control_;
  std::uint32_t stride_;
  std::uint32_t countdown_;
};

}  // namespace ppref

#endif  // PPREF_COMMON_DEADLINE_H_
