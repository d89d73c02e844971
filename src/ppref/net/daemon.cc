#include "ppref/net/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include "ppref/common/bytes.h"
#include "ppref/common/hash.h"
#include "ppref/common/parallel.h"
#include "ppref/net/codec.h"
#include "ppref/obs/metrics.h"

namespace ppref::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Epoll user-data ids for the two non-connection fds.
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnectionId = 2;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Best-effort little-endian u64 opening a base request — how a shed or
/// undecodable request's id is recovered without decoding the body (0 when
/// too short).
std::uint64_t PeekId(std::string_view base) { return ByteReader(base).U64(); }

/// Protocol-plane tags folded into idempotency-table keys: the binary and
/// HTTP planes retain different byte encodings of the same logical answer,
/// so their keys must never alias.
constexpr std::uint64_t kIdemPlaneBinary = 0x62696e5050524631ull;  // "binPPRF1"
constexpr std::uint64_t kIdemPlaneHttp = 0x6874745050524631ull;    // "httPPRF1"

/// Strict decimal u64 parse for the idempotency HTTP header; false on
/// empty, non-digit, overflow, or zero.
bool ParseHeaderKey(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ull - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (value == 0) return false;
  *out = value;
  return true;
}

/// One request kind: everything the daemon does per kind, in one row of
/// the table below, keyed by the kind's request frame type.
struct KindRow {
  FrameType request;
  FrameType response;
  /// Where the embedded base request starts in a binary body: 0 for
  /// evaluate, 4 (past the u32 base length) for the composite kinds. The id
  /// and the idempotency key are read there without decoding.
  std::size_t base_offset;
  /// The HTTP POST route.
  std::string_view route;
  /// The kind's dispatch counter over both planes; null for evaluate, which
  /// the per-plane counters already count.
  const char* counter_name;
  const char* counter_help;
  /// Decodes the binary `body` (or the JSON document, when non-null),
  /// serves it, and encodes the answer as a response frame (or JSON text).
  /// A body that fails to decode is answered with a refusal frame; a JSON
  /// mapping failure comes back as its status (the HTTP 400). `*retain`
  /// reports whether the answer is terminal, so safe to keep for idempotent
  /// replay.
  StatusOr<std::string> (*execute)(serve::Server& server, const KindRow& kind,
                                   std::string_view body,
                                   const JsonValue* json, bool* retain);
  /// A response frame carrying only `id` and a non-OK `status`.
  std::string (*refuse)(const KindRow& kind, std::uint64_t id,
                        Status status);

  /// The embedded base request of a binary body (empty when too short).
  std::string_view Base(std::string_view body) const {
    return body.substr(std::min(base_offset, body.size()));
  }
};

/// Terminal answers replay bit-identically: exact OK answers, and degraded
/// approximate ones (seeded MC — *the* answer for this request, so a retry
/// must see the same bits). Transient refusals (shed, empty-handed
/// deadline) must not be pinned — a later retry deserves a fresh attempt.
bool Terminal(const WireResponse& response) {
  return response.status.ok() || response.approximate;
}
template <typename Response>
bool Terminal(const Response& response) {
  return response.status.ok();
}

// The serve step of each kind: the one place its serve answer becomes its
// wire response, shared by the binary and HTTP planes.

WireResponse ServeEvaluate(serve::Server& server, const WireRequest& request) {
  return WireResponse::From(request.id, server.Evaluate(request.ToRequest()));
}

WireSweepResponse ServeSweep(serve::Server& server,
                             const WireSweepRequest& request) {
  WireSweepResponse response;
  response.id = request.id;
  StatusOr<std::vector<double>> answers = server.PatternProbSweep(
      request.model, request.pattern, request.params, {request.deadline_ns});
  if (!answers.ok()) {
    response.status = answers.status();
  } else {
    response.probabilities = std::move(answers).value();
  }
  return response;
}

WireHardResponse ServeHard(serve::Server& server,
                           const WireHardRequest& request) {
  WireHardResponse response;
  response.id = request.id;
  const StatusOr<serve::HardEstimate> estimate =
      server.HardPatternProb(request.model, request.pattern,
                             request.target_half_width, {request.deadline_ns});
  if (!estimate.ok()) {
    response.status = estimate.status();
  } else {
    static_cast<serve::HardEstimate&>(response) = *estimate;
  }
  return response;
}

WireConsensusResponse ServeConsensus(serve::Server& server,
                                     const WireConsensusRequest& request) {
  WireConsensusResponse response;
  response.id = request.id;
  const StatusOr<serve::ConsensusAnswer> answer =
      server.ConsensusTopK(request.model, request.top_k, {request.deadline_ns});
  if (!answer.ok()) {
    response.status = answer.status();
  } else {
    static_cast<serve::ConsensusAnswer&>(response) = *answer;
  }
  return response;
}

/// A kind's two table steps, bound at compile time to its codec functions
/// and its serve step.
template <typename Request, typename Response,
          StatusOr<Request> (*kDecode)(std::string_view),
          StatusOr<Request> (*kFromJson)(const JsonValue&),
          Response (*kServe)(serve::Server&, const Request&),
          std::string (*kEncode)(const Response&),
          std::string (*kToJson)(const Response&)>
struct Steps {
  static StatusOr<std::string> Execute(serve::Server& server,
                                       const KindRow& kind,
                                       std::string_view body,
                                       const JsonValue* json, bool* retain) {
    const StatusOr<Request> request =
        json != nullptr ? kFromJson(*json) : kDecode(body);
    if (!request.ok()) {
      if (json != nullptr) return request.status();
      // The id may not have survived decoding; the peeked id plus the status
      // is the best-effort answer (the strict client treats it as terminal).
      return Refuse(kind, PeekId(kind.Base(body)), request.status());
    }
    const Response response = kServe(server, *request);
    *retain = Terminal(response);
    if (json != nullptr) return kToJson(response);
    return EncodeFrame(kind.response, kEncode(response));
  }

  static std::string Refuse(const KindRow& kind, std::uint64_t id,
                            Status status) {
    Response response;
    response.id = id;
    response.status = std::move(status);
    return EncodeFrame(kind.response, kEncode(response));
  }
};

using EvaluateSteps =
    Steps<WireRequest, WireResponse, DecodeRequest, WireRequestFromJson,
          ServeEvaluate, EncodeResponse, JsonFromWireResponse>;
using SweepSteps =
    Steps<WireSweepRequest, WireSweepResponse, DecodeSweepRequest,
          SweepRequestFromJson, ServeSweep, EncodeSweepResponse,
          JsonFromWireSweepResponse>;
using HardSteps =
    Steps<WireHardRequest, WireHardResponse, DecodeHardRequest,
          HardRequestFromJson, ServeHard, EncodeHardResponse,
          JsonFromWireHardResponse>;
using ConsensusSteps =
    Steps<WireConsensusRequest, WireConsensusResponse, DecodeConsensusRequest,
          ConsensusRequestFromJson, ServeConsensus, EncodeConsensusResponse,
          JsonFromWireConsensusResponse>;

constexpr KindRow kKinds[] = {
    {FrameType::kRequest, PairedResponse(FrameType::kRequest), 0, "/query",
     nullptr, nullptr, EvaluateSteps::Execute, EvaluateSteps::Refuse},
    {FrameType::kSweepRequest, PairedResponse(FrameType::kSweepRequest), 4,
     "/sweep", "ppref_net_requests_sweep_total",
     "Parameter-sweep requests dispatched (binary and HTTP)",
     SweepSteps::Execute, SweepSteps::Refuse},
    {FrameType::kHardRequest, PairedResponse(FrameType::kHardRequest), 4,
     "/hard", "ppref_net_requests_hard_total",
     "Hard-tier adaptive-estimate requests dispatched (binary and HTTP)",
     HardSteps::Execute, HardSteps::Refuse},
    {FrameType::kConsensusRequest,
     PairedResponse(FrameType::kConsensusRequest), 4, "/consensus",
     "ppref_net_requests_consensus_total",
     "Consensus top-k requests dispatched (binary and HTTP)",
     ConsensusSteps::Execute, ConsensusSteps::Refuse},
};
constexpr std::size_t kKindCount = std::size(kKinds);

/// The row of a binary request frame type; null for any other frame.
const KindRow* KindOf(FrameType type) {
  for (const KindRow& kind : kKinds) {
    if (kind.request == type) return &kind;
  }
  return nullptr;
}

/// The row serving an HTTP request; null unless it is a POST to a kind's
/// route.
const KindRow* RouteOf(const HttpRequest& request) {
  if (request.method != "POST") return nullptr;
  for (const KindRow& kind : kKinds) {
    if (kind.route == request.target) return &kind;
  }
  return nullptr;
}

/// A request's idempotency-table key, 0 when unkeyed. The raw key is the
/// base request's (binary) or the x-ppref-idempotency-key header's (HTTP);
/// every key folds in its plane and its kind, so a key reused across planes
/// or routes never replays another kind's bytes. A binary key also folds in
/// the wire id, so retained bytes echo the id their requester sent (retries
/// reuse id + key; see wire.h).
std::uint64_t IdempotencyKey(const KindRow& kind, bool http,
                             const HttpRequest& request,
                             std::string_view body) {
  const auto kind_tag = static_cast<std::uint64_t>(kind.request);
  std::uint64_t raw = 0;
  if (http) {
    const std::string* header = request.Header("x-ppref-idempotency-key");
    if (header == nullptr || !ParseHeaderKey(*header, &raw)) return 0;
    return HashCombine(HashCombine(kIdemPlaneHttp, raw), kind_tag);
  }
  const std::string_view base = kind.Base(body);
  raw = PeekIdempotencyKey(base);
  if (raw == 0) return 0;
  return HashCombine(
      HashCombine(HashCombine(kIdemPlaneBinary, raw), PeekId(base)), kind_tag);
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structs

struct Daemon::Connection {
  Connection(std::uint64_t id, int fd, const DaemonOptions& options)
      : id(id),
        fd(fd),
        assembler(options.max_frame_body),
        http(options.max_http_bytes) {}

  std::uint64_t id;
  int fd;

  enum class Protocol : std::uint8_t { kUnknown, kBinary, kHttp };
  Protocol protocol = Protocol::kUnknown;
  /// Bytes held while the protocol is still undecided (< 4 bytes seen).
  std::string detect;

  FrameAssembler assembler;
  HttpAccumulator http;

  std::string out;
  std::size_t out_offset = 0;
  bool want_write = false;

  /// Requests dispatched to workers and not yet answered.
  std::size_t in_flight = 0;
  bool peer_closed = false;
  bool close_after_flush = false;

  /// Expiry point while quiet (no request in flight); reset on accept and
  /// on every flushed response.
  Clock::time_point deadline_at;
};

struct Daemon::Job {
  std::uint64_t conn_id = 0;
  bool http = false;
  /// The request kind; for HTTP, null unless the request is a POST to a
  /// kind's route.
  const KindRow* kind = nullptr;
  std::string body;      // binary request frame body
  HttpRequest request;   // http request
};

struct Daemon::Completion {
  std::uint64_t conn_id = 0;
  std::string bytes;
  bool close_after = false;
};

struct Daemon::Instruments {
  explicit Instruments(obs::MetricsRegistry& r)
      : accepted(r.GetCounter("ppref_net_connections_accepted_total",
                              "TCP connections accepted")),
        adopted(r.GetCounter("ppref_net_connections_adopted_total",
                             "Connections injected via AdoptConnection")),
        closed(r.GetCounter("ppref_net_connections_closed_total",
                            "Connections closed (any reason)")),
        deadline_closes(
            r.GetCounter("ppref_net_deadline_closes_total",
                         "Connections closed by the per-connection deadline")),
        refused(r.GetCounter("ppref_net_connections_refused_total",
                             "Connections refused (capacity or drain)")),
        bad_frames(r.GetCounter("ppref_net_bad_frames_total",
                                "Connections dropped for framing violations")),
        requests_binary(r.GetCounter("ppref_net_requests_binary_total",
                                     "Binary-protocol requests dispatched")),
        requests_http(r.GetCounter("ppref_net_requests_http_total",
                                   "HTTP requests dispatched")),
        shed_draining(r.GetCounter(
            "ppref_net_shed_draining_total",
            "Requests refused because the daemon was draining")),
        bytes_rx(r.GetCounter("ppref_net_bytes_rx_total", "Bytes read")),
        bytes_tx(r.GetCounter("ppref_net_bytes_tx_total", "Bytes written")),
        active(r.GetGauge("ppref_net_connections_active",
                          "Currently open connections")),
        draining(r.GetGauge("ppref_net_draining",
                            "1 once graceful drain has begun")) {
    for (std::size_t k = 0; k < kKindCount; ++k) {
      if (kKinds[k].counter_name != nullptr) {
        by_kind[k] =
            &r.GetCounter(kKinds[k].counter_name, kKinds[k].counter_help);
      }
    }
  }

  /// Counts one dispatch of `kind` on its own counter, if it has one.
  void CountKind(const KindRow& kind) {
    if (obs::Counter* counter = by_kind[&kind - kKinds]) counter->Inc();
  }

  obs::Counter& accepted;
  obs::Counter& adopted;
  obs::Counter& closed;
  obs::Counter& deadline_closes;
  obs::Counter& refused;
  obs::Counter& bad_frames;
  obs::Counter& requests_binary;
  obs::Counter& requests_http;
  obs::Counter& shed_draining;
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;
  obs::Gauge& active;
  obs::Gauge& draining;
  /// Per-kind dispatch counters, by kKinds index (null where a kind has
  /// none).
  obs::Counter* by_kind[kKindCount] = {};
};

// ---------------------------------------------------------------------------
// Lifecycle

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  if (options_.server != nullptr) {
    server_ = options_.server;
  } else {
    owned_server_ = std::make_unique<serve::Server>(options_.server_options);
    server_ = owned_server_.get();
  }
  instruments_ = std::make_unique<Instruments>(server_->registry());
  if (options_.idempotency_capacity > 0) {
    IdempotencyTable::Options idem_options;
    idem_options.capacity = options_.idempotency_capacity;
    idem_options.registry = &server_->registry();
    idempotency_ = std::make_unique<IdempotencyTable>(idem_options);
  }
}

IdempotencyTable::Stats Daemon::idempotency_stats() const {
  return idempotency_ != nullptr ? idempotency_->stats()
                                 : IdempotencyTable::Stats{};
}

Daemon::~Daemon() {
  Stop();
  // After Stop() no thread but this one is alive; listen_fd_ is still open
  // only when Start() failed before the IO thread existed.
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  if (wake_fd_ >= 0) close(wake_fd_);
  wake_fd_ = -1;
  if (epoll_fd_ >= 0) close(epoll_fd_);
  epoll_fd_ = -1;
}

Status Daemon::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("daemon already started");
  }
  // On any failure below the IO thread will never run, so mark it done —
  // otherwise a later Stop()/Join() would wait for it forever.
  auto fail = [this](Status status) {
    io_done_.store(true, std::memory_order_release);
    join_cv_.notify_all();
    return status;
  };

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail(Errno("epoll_create1"));
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail(Errno("eventfd"));
  Watch(EPOLL_CTL_ADD, wake_fd_, kWakeId, EPOLLIN);

  if (options_.listen_fd >= 0) {
    listen_fd_ = options_.listen_fd;
    SetNonBlocking(listen_fd_);
  } else if (options_.port >= 0) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                        0);
    if (listen_fd_ < 0) return fail(Errno("socket"));
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (inet_pton(AF_INET, options_.bind_address.c_str(),
                  &address.sin_addr) != 1) {
      return fail(Status::InvalidArgument("bad bind address " +
                                          options_.bind_address));
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
      return fail(Errno("bind"));
    }
    if (listen(listen_fd_, 128) != 0) return fail(Errno("listen"));
  }
  if (listen_fd_ >= 0) {
    sockaddr_in address{};
    socklen_t length = sizeof(address);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) == 0 &&
        address.sin_family == AF_INET) {
      port_ = ntohs(address.sin_port);
    }
    Watch(EPOLL_CTL_ADD, listen_fd_, kListenId, EPOLLIN);
  }

  unsigned workers = options_.workers;
  if (workers == 0) workers = ClampThreads(0);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::Ok();
}

Status Daemon::AdoptConnection(int fd) {
  if (!started_.load(std::memory_order_acquire) ||
      io_done_.load(std::memory_order_acquire)) {
    close(fd);
    return Status::Internal("daemon not running");
  }
  if (drain_.load(std::memory_order_acquire)) {
    close(fd);
    return Status::ResourceExhausted("daemon draining");
  }
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    adopt_pending_.push_back(fd);
  }
  Wake();
  return Status::Ok();
}

void Daemon::RequestDrain() {
  // Async-signal-safe: one atomic store, one eventfd write.
  drain_.store(true, std::memory_order_release);
  Wake();
}

void Daemon::Join() {
  if (!started_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(join_mutex_);
  join_cv_.wait(lock, [this] { return io_done_.load(); });
  if (!joined_) {
    joined_ = true;
    lock.unlock();
    if (io_thread_.joinable()) io_thread_.join();
    return;
  }
  lock.unlock();
  // Another thread owns the join; wait for the thread to finish.
  if (io_thread_.joinable()) io_thread_.join();
}

void Daemon::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  drain_.store(true, std::memory_order_release);
  Wake();
  Join();
}

void Daemon::Wake() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

// ---------------------------------------------------------------------------
// IO thread

void Daemon::IoLoop() {
  bool drain_seen = false;
  epoll_event events[64];

  while (true) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (drain_.load(std::memory_order_acquire) && !drain_seen) {
      drain_seen = true;
      instruments_->draining.Set(1);
      if (listen_fd_ >= 0) {
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        close(listen_fd_);
        listen_fd_ = -1;
      }
      // Close what can close now; connections with answers pending flush
      // first (close_after_flush), the rest go immediately.
      std::vector<std::uint64_t> idle;
      for (auto& [id, connection] : connections_) {
        connection->close_after_flush = true;
        if (connection->in_flight == 0 && connection->out_offset ==
            connection->out.size()) {
          idle.push_back(id);
        }
      }
      for (std::uint64_t id : idle) CloseConnection(id);
    }
    if (drain_seen && connections_.empty()) break;

    const int ready =
        epoll_wait(epoll_fd_, events, 64, NextTimeoutMs());
    if (ready < 0 && errno != EINTR) break;

    for (int i = 0; i < ready; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        AcceptReady();
        continue;
      }
      if (id == kWakeId) {
        std::uint64_t drainer = 0;
        while (read(wake_fd_, &drainer, sizeof(drainer)) > 0) {
        }
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection& connection = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseConnection(id);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) ReadReady(connection);
      // ReadReady may have closed the connection; re-find before writing.
      auto again = connections_.find(id);
      if (again != connections_.end() &&
          (events[i].events & EPOLLOUT) != 0) {
        WriteReady(*again->second);
      }
    }

    AdoptPending();
    DrainCompletions();
    CloseExpiredConnections();
  }

  // Teardown: drop every remaining connection, stop the workers, release
  // the fds. Runs on the IO thread so connection state stays single-owner
  // to the end.
  for (auto& [id, connection] : connections_) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
    close(connection->fd);
    instruments_->closed.Inc();
    instruments_->active.Add(-1);
  }
  connections_.clear();
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    for (int fd : adopt_pending_) close(fd);
    adopt_pending_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_closed_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  // wake_fd_ / epoll_fd_ stay open: Wake()/RequestDrain() may still be
  // writing the eventfd from other threads (including a signal handler),
  // so those fds are owned by the Daemon object and close in ~Daemon, after
  // every thread that could touch them is joined.

  io_done_.store(true, std::memory_order_release);
  join_cv_.notify_all();
}

void Daemon::AcceptReady() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) return;
    if (drain_.load(std::memory_order_acquire) ||
        (options_.max_connections != 0 &&
         connections_.size() >= options_.max_connections)) {
      instruments_->refused.Inc();
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    instruments_->accepted.Inc();
    AddConnection(fd);
  }
}

void Daemon::AdoptPending() {
  std::vector<int> pending;
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    pending.swap(adopt_pending_);
  }
  for (int fd : pending) {
    if (drain_.load(std::memory_order_acquire)) {
      close(fd);
      continue;
    }
    SetNonBlocking(fd);
    instruments_->adopted.Inc();
    AddConnection(fd);
  }
}

void Daemon::AddConnection(int fd) {
  const std::uint64_t id = next_connection_id_++;
  auto connection = std::make_unique<Connection>(id, fd, options_);
  connection->deadline_at =
      Clock::now() + std::chrono::nanoseconds(options_.connection_deadline_ns);
  Watch(EPOLL_CTL_ADD, fd, id, EPOLLIN);
  connections_.emplace(id, std::move(connection));
  instruments_->active.Add(1);
}

void Daemon::Watch(int op, int fd, std::uint64_t id, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = id;
  epoll_ctl(epoll_fd_, op, fd, &event);
}

void Daemon::ReadReady(Connection& connection) {
  char buffer[65536];
  while (true) {
    const ssize_t n = recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      instruments_->bytes_rx.Inc(static_cast<std::uint64_t>(n));
      HandleInput(connection, buffer, static_cast<std::size_t>(n));
      // HandleInput may close on protocol violations.
      if (connections_.find(connection.id) == connections_.end()) return;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error.
    if (connection.in_flight == 0 &&
        connection.out_offset == connection.out.size()) {
      CloseConnection(connection.id);
    } else {
      connection.peer_closed = true;
    }
    return;
  }
}

void Daemon::HandleInput(Connection& connection, const char* data,
                         std::size_t size) {
  if (connection.protocol == Connection::Protocol::kUnknown) {
    connection.detect.append(data, size);
    const std::string_view magic("PPRF", 4);
    const std::size_t have = std::min<std::size_t>(connection.detect.size(), 4);
    if (connection.detect.compare(0, have, magic.substr(0, have)) == 0) {
      if (have < 4) return;  // still ambiguous, wait for more bytes
      connection.protocol = Connection::Protocol::kBinary;
    } else {
      connection.protocol = Connection::Protocol::kHttp;
    }
    const std::string detect = std::move(connection.detect);
    connection.detect.clear();
    HandleInput(connection, detect.data(), detect.size());
    return;
  }

  if (connection.protocol == Connection::Protocol::kBinary) {
    if (!connection.assembler.Feed(data, size).ok()) {
      instruments_->bad_frames.Inc();
      CloseConnection(connection.id);
      return;
    }
    Frame frame;
    while (connection.assembler.Next(&frame)) {
      DispatchBinary(connection, std::move(frame));
      if (connections_.find(connection.id) == connections_.end()) return;
    }
    return;
  }

  // HTTP.
  const HttpAccumulator::State state =
      connection.http.Feed(std::string_view(data, size));
  if (state == HttpAccumulator::State::kError) {
    QueueOutput(connection,
                RenderHttpResponse(400, "Bad Request", "text/plain",
                                   connection.http.status().message() + "\n"),
                /*close_after=*/true);
    return;
  }
  if (state == HttpAccumulator::State::kComplete) DispatchHttp(connection);
}

void Daemon::DispatchBinary(Connection& connection, Frame frame) {
  if (frame.type == FrameType::kPing) {
    QueueOutput(connection, EncodeFrame(FrameType::kPong, frame.body),
                /*close_after=*/false);
    return;
  }
  const KindRow* kind = KindOf(frame.type);
  if (kind == nullptr) {
    // Clients send requests and pings; anything else is a violation.
    instruments_->bad_frames.Inc();
    CloseConnection(connection.id);
    return;
  }
  if (drain_.load(std::memory_order_acquire)) {
    // Shed without decoding the model: only the id (the first 8 bytes of
    // the base request) is needed for a well-formed refusal.
    instruments_->shed_draining.Inc();
    QueueOutput(connection,
                kind->refuse(*kind, PeekId(kind->Base(frame.body)),
                             Status::ResourceExhausted("daemon draining")),
                /*close_after=*/false);
    return;
  }
  instruments_->requests_binary.Inc();
  instruments_->CountKind(*kind);
  ++connection.in_flight;
  Job job;
  job.conn_id = connection.id;
  job.kind = kind;
  job.body = std::move(frame.body);
  PushJob(std::move(job));
}

void Daemon::DispatchHttp(Connection& connection) {
  if (drain_.load(std::memory_order_acquire)) {
    instruments_->shed_draining.Inc();
    QueueOutput(connection,
                RenderHttpResponse(503, "Service Unavailable", "text/plain",
                                   "draining\n"),
                /*close_after=*/true);
    return;
  }
  instruments_->requests_http.Inc();
  ++connection.in_flight;
  Job job;
  job.conn_id = connection.id;
  job.http = true;
  job.request = connection.http.request();
  job.kind = RouteOf(job.request);
  PushJob(std::move(job));
}

void Daemon::QueueOutput(Connection& connection, std::string bytes,
                         bool close_after) {
  if (connection.out_offset == connection.out.size()) {
    connection.out.clear();
    connection.out_offset = 0;
  }
  connection.out += bytes;
  if (close_after) connection.close_after_flush = true;
  FlushOutput(connection);
}

void Daemon::FlushOutput(Connection& connection) {
  while (connection.out_offset < connection.out.size()) {
    const ssize_t n =
        send(connection.fd, connection.out.data() + connection.out_offset,
             connection.out.size() - connection.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      instruments_->bytes_tx.Inc(static_cast<std::uint64_t>(n));
      connection.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!connection.want_write) {
        connection.want_write = true;
        Watch(EPOLL_CTL_MOD, connection.fd, connection.id, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer is gone; nothing left to deliver.
    CloseConnection(connection.id);
    return;
  }
  // Fully flushed.
  if (connection.want_write) {
    connection.want_write = false;
    Watch(EPOLL_CTL_MOD, connection.fd, connection.id, EPOLLIN);
  }
  if (connection.in_flight == 0 &&
      (connection.close_after_flush || connection.peer_closed)) {
    CloseConnection(connection.id);
    return;
  }
  // Back to quiet: re-arm the idle deadline.
  connection.deadline_at =
      Clock::now() + std::chrono::nanoseconds(options_.connection_deadline_ns);
}

void Daemon::WriteReady(Connection& connection) { FlushOutput(connection); }

void Daemon::CloseConnection(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  close(it->second->fd);
  connections_.erase(it);
  instruments_->closed.Inc();
  instruments_->active.Add(-1);
}

void Daemon::DrainCompletions() {
  std::vector<Completion> completions;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions.swap(completions_);
  }
  for (Completion& completion : completions) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection died meanwhile
    Connection& connection = *it->second;
    if (connection.in_flight > 0) --connection.in_flight;
    QueueOutput(connection, std::move(completion.bytes),
                completion.close_after);
  }
}

void Daemon::CloseExpiredConnections() {
  if (options_.connection_deadline_ns == 0) return;
  const Clock::time_point now = Clock::now();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, connection] : connections_) {
    if (connection->in_flight == 0 && now >= connection->deadline_at) {
      expired.push_back(id);
    }
  }
  for (std::uint64_t id : expired) {
    instruments_->deadline_closes.Inc();
    CloseConnection(id);
  }
}

int Daemon::NextTimeoutMs() const {
  if (options_.connection_deadline_ns == 0) return 500;
  const Clock::time_point now = Clock::now();
  std::int64_t best_ms = 500;
  for (const auto& [id, connection] : connections_) {
    if (connection->in_flight != 0) continue;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          connection->deadline_at - now)
                          .count();
    if (left < best_ms) best_ms = left;
  }
  if (best_ms < 0) best_ms = 0;
  return static_cast<int>(best_ms);
}

// ---------------------------------------------------------------------------
// Workers

void Daemon::PushJob(Job job) {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void Daemon::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(std::move(completion));
  }
  Wake();
}

void Daemon::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock, [this] { return jobs_closed_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // closed and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    // Idempotent re-execution: a keyed request claims its table slot before
    // the expensive decode+evaluate. A replayed or coalesced retry costs no
    // serve-layer work at all; a waiter produces *no* completion here — the
    // owner's Publish fans the bytes out to every parked waiter.
    const std::uint64_t idem_key =
        idempotency_ != nullptr && job.kind != nullptr
            ? IdempotencyKey(*job.kind, job.http, job.request, job.body)
            : 0;
    const bool http_close = job.http;  // HTTP is one-shot (Connection: close)
    if (idem_key != 0) {
      IdempotencyTable::Claim claim =
          idempotency_->Begin(idem_key, job.conn_id);
      if (claim.role == IdempotencyTable::Role::kReplay) {
        Completion completion;
        completion.conn_id = job.conn_id;
        completion.bytes = std::move(claim.replay_bytes);
        completion.close_after = http_close;
        PushCompletion(std::move(completion));
        continue;
      }
      if (claim.role == IdempotencyTable::Role::kWaiter) continue;
    }

    Completion completion;
    completion.conn_id = job.conn_id;
    completion.close_after = http_close;
    bool retain = false;
    completion.bytes =
        job.http ? ExecuteHttp(job, drain_.load(std::memory_order_acquire),
                               &retain)
                 : job.kind->execute(*server_, *job.kind, job.body,
                                     /*json=*/nullptr, &retain)
                       .value();
    if (idem_key != 0) {
      const std::vector<std::uint64_t> waiters =
          idempotency_->Publish(idem_key, completion.bytes, retain);
      for (std::uint64_t waiter : waiters) {
        Completion coalesced;
        coalesced.conn_id = waiter;
        coalesced.bytes = completion.bytes;
        coalesced.close_after = http_close;
        PushCompletion(std::move(coalesced));
      }
    }
    PushCompletion(std::move(completion));
  }
}

std::string Daemon::ExecuteHttp(const Job& job, bool draining,
                                bool* retain_idem) {
  const HttpRequest& request = job.request;
  if (request.method == "GET") {
    if (request.target == "/healthz") {
      if (draining) {
        return RenderHttpResponse(503, "Service Unavailable", "text/plain",
                                  "draining\n");
      }
      return RenderHttpResponse(200, "OK", "text/plain", "ok\n");
    }
    if (request.target == "/metrics") {
      return RenderHttpResponse(200, "OK",
                                "text/plain; version=0.0.4; charset=utf-8",
                                server_->ScrapeMetrics());
    }
    if (request.target == "/metrics.json") {
      return RenderHttpResponse(200, "OK", "application/json",
                                server_->ScrapeMetricsJson());
    }
    return RenderHttpResponse(404, "Not Found", "text/plain", "not found\n");
  }
  if (request.method != "POST") {
    return RenderHttpResponse(405, "Method Not Allowed", "text/plain",
                              "method not allowed\n");
  }
  if (job.kind == nullptr) {
    return RenderHttpResponse(404, "Not Found", "text/plain", "not found\n");
  }

  const StatusOr<JsonValue> document = ParseJson(request.body);
  Status error = document.status();
  if (document.ok()) {
    instruments_->CountKind(*job.kind);
    StatusOr<std::string> json = job.kind->execute(
        *server_, *job.kind, /*body=*/{}, &*document, retain_idem);
    if (json.ok()) {
      return RenderHttpResponse(200, "OK", "application/json", json.value());
    }
    error = json.status();
  }
  return RenderHttpResponse(
      400, "Bad Request", "application/json",
      "{\"status\":\"INVALID_ARGUMENT\",\"message\":" +
          JsonQuote(error.message()) + "}");
}

}  // namespace ppref::net
