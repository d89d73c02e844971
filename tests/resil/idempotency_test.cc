/// \file idempotency_test.cc
/// \brief Idempotent re-execution: the table's role/retention semantics, and
/// the daemon's dedup path end to end over adopted socketpairs — binary and
/// HTTP planes, replay bit-identity (degraded seeded-MC answers included),
/// and the counters that prove zero recomputes.

#include "ppref/net/dedup.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "ppref/net/codec.h"
#include "ppref/net/daemon.h"
#include "ppref/net/frame.h"
#include "ppref/obs/metrics.h"
#include "ppref/serve/workload.h"

namespace ppref::net {
namespace {

// --- table unit tests ------------------------------------------------------

TEST(ResilIdempotencyTableTest, FirstClaimOwnsThenRetainedReplays) {
  IdempotencyTable table;
  IdempotencyTable::Claim first = table.Begin(7, 100);
  EXPECT_EQ(first.role, IdempotencyTable::Role::kOwner);
  table.Publish(7, "answer-bytes", /*retain=*/true);
  IdempotencyTable::Claim second = table.Begin(7, 101);
  EXPECT_EQ(second.role, IdempotencyTable::Role::kReplay);
  EXPECT_EQ(second.replay_bytes, "answer-bytes");
  const IdempotencyTable::Stats stats = table.stats();
  EXPECT_EQ(stats.owner, 1u);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(ResilIdempotencyTableTest, InFlightClaimsCoalesceOntoOwner) {
  IdempotencyTable table;
  EXPECT_EQ(table.Begin(9, 1).role, IdempotencyTable::Role::kOwner);
  EXPECT_EQ(table.Begin(9, 2).role, IdempotencyTable::Role::kWaiter);
  EXPECT_EQ(table.Begin(9, 3).role, IdempotencyTable::Role::kWaiter);
  const std::vector<std::uint64_t> waiters =
      table.Publish(9, "bytes", /*retain=*/true);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[0], 2u);
  EXPECT_EQ(waiters[1], 3u);
  EXPECT_EQ(table.stats().coalesced, 2u);
}

TEST(ResilIdempotencyTableTest, UnretainedPublishAllowsFreshExecution) {
  IdempotencyTable table;
  EXPECT_EQ(table.Begin(5, 1).role, IdempotencyTable::Role::kOwner);
  EXPECT_EQ(table.Begin(5, 2).role, IdempotencyTable::Role::kWaiter);
  // A transient failure: waiters still get the bytes, nothing is retained.
  const std::vector<std::uint64_t> waiters =
      table.Publish(5, "shed", /*retain=*/false);
  ASSERT_EQ(waiters.size(), 1u);
  // The key is free again — a later retry computes afresh.
  EXPECT_EQ(table.Begin(5, 3).role, IdempotencyTable::Role::kOwner);
  EXPECT_EQ(table.stats().owner, 2u);
}

TEST(ResilIdempotencyTableTest, RetainedEntriesEvictFifoPastCapacity) {
  IdempotencyTable::Options options;
  options.capacity = 2;
  IdempotencyTable table(options);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    ASSERT_EQ(table.Begin(key, key).role, IdempotencyTable::Role::kOwner);
    table.Publish(key, "v" + std::to_string(key), /*retain=*/true);
  }
  EXPECT_EQ(table.stats().evicted, 1u);
  // Key 1 (oldest) evicted; 2 and 3 still replay.
  EXPECT_EQ(table.Begin(1, 9).role, IdempotencyTable::Role::kOwner);
  EXPECT_EQ(table.Begin(2, 9).role, IdempotencyTable::Role::kReplay);
  EXPECT_EQ(table.Begin(3, 9).role, IdempotencyTable::Role::kReplay);
}

TEST(ResilIdempotencyTableTest, CountersLandInRegistry) {
  obs::MetricsRegistry registry;
  IdempotencyTable::Options options;
  options.registry = &registry;
  IdempotencyTable table(options);
  table.Begin(1, 1);
  table.Publish(1, "x", true);
  table.Begin(1, 2);
  EXPECT_EQ(
      registry.GetCounter("ppref_net_idem_owner_total", "").Value(), 1u);
  EXPECT_EQ(
      registry.GetCounter("ppref_net_idem_replayed_total", "").Value(), 1u);
}

// --- daemon integration over adopted socketpairs ---------------------------

int AdoptPair(Daemon& daemon) {
  int fds[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(daemon.AdoptConnection(fds[1]).ok());
  return fds[0];
}

DaemonOptions AdoptOnlyOptions() {
  DaemonOptions options;
  options.port = -1;
  options.workers = 2;
  return options;
}

/// Sends one encoded frame and reads exactly one response frame's raw bytes
/// (header + body) back.
std::string RoundTripRaw(int fd, const std::string& frame_bytes) {
  EXPECT_EQ(send(fd, frame_bytes.data(), frame_bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame_bytes.size()));
  std::string raw;
  FrameAssembler assembler;
  Frame frame;
  char buffer[4096];
  while (!assembler.Next(&frame)) {
    pollfd p{fd, POLLIN, 0};
    EXPECT_GT(poll(&p, 1, 10000), 0);
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    EXPECT_GT(n, 0);
    if (n <= 0) return raw;
    raw.append(buffer, static_cast<std::size_t>(n));
    EXPECT_TRUE(assembler.Feed(buffer, static_cast<std::size_t>(n)).ok());
  }
  return raw;
}

TEST(ResilIdempotencyDaemonTest, KeyedBinaryRetryReplaysIdenticalBytes) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(2);

  WireRequest request(31, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  request.idempotency_key = 0xfeedface;
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));

  // Two "attempts" of the same logical request on separate connections —
  // exactly what a retrying client does after a torn response.
  const int first_fd = AdoptPair(daemon);
  const std::string first = RoundTripRaw(first_fd, frame);
  close(first_fd);
  const int second_fd = AdoptPair(daemon);
  const std::string second = RoundTripRaw(second_fd, frame);
  close(second_fd);

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // bit-identical replay
  const IdempotencyTable::Stats stats = daemon.idempotency_stats();
  EXPECT_EQ(stats.owner, 1u);  // executed exactly once
  EXPECT_EQ(stats.replayed, 1u);
  daemon.Stop();
}

TEST(ResilIdempotencyDaemonTest, SameKeyDifferentIdExecutesSeparately) {
  // The daemon folds the wire id into the dedup key: a different id is a
  // different logical request even under the same raw key, and its replayed
  // bytes must echo its own id.
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(2);

  WireRequest request(41, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  request.idempotency_key = 0xabc;
  const int fd_a = AdoptPair(daemon);
  RoundTripRaw(fd_a, EncodeFrame(FrameType::kRequest, EncodeRequest(request)));
  close(fd_a);

  request.id = 42;
  const int fd_b = AdoptPair(daemon);
  const std::string raw =
      RoundTripRaw(fd_b, EncodeFrame(FrameType::kRequest,
                                     EncodeRequest(request)));
  close(fd_b);

  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(raw.data(), raw.size()).ok());
  Frame frame;
  ASSERT_TRUE(assembler.Next(&frame));
  StatusOr<WireResponse> decoded = DecodeResponse(frame.body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 42u);
  EXPECT_EQ(daemon.idempotency_stats().owner, 2u);
  daemon.Stop();
}

TEST(ResilIdempotencyDaemonTest, UnkeyedRequestsNeverTouchTheTable) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  WireRequest request(51, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  for (int i = 0; i < 2; ++i) {
    const int fd = AdoptPair(daemon);
    RoundTripRaw(fd, frame);
    close(fd);
  }
  const IdempotencyTable::Stats stats = daemon.idempotency_stats();
  EXPECT_EQ(stats.owner, 0u);
  EXPECT_EQ(stats.replayed, 0u);
  daemon.Stop();
}

TEST(ResilIdempotencyDaemonTest, DegradedSeededAnswerReplaysBitIdentical) {
  // The payoff case: a deadline-degraded Monte-Carlo answer is seeded and
  // approximate — legal to differ between *executions*, so the daemon must
  // not execute twice. The retry's bytes must be the retained ones.
  DaemonOptions options = AdoptOnlyOptions();
  options.server_options.degradation =
      serve::ServerOptions::Degradation::kMonteCarlo;
  options.server_options.degraded_samples = 512;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(2);

  WireRequest request(61, serve::Request::Kind::kPatternProb,
                      /*deadline_ns=*/1, workload.models[0],
                      workload.patterns[0]);
  request.idempotency_key = 0xdeadbeef;
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));

  const int fd_a = AdoptPair(daemon);
  const std::string first = RoundTripRaw(fd_a, frame);
  close(fd_a);
  const int fd_b = AdoptPair(daemon);
  const std::string second = RoundTripRaw(fd_b, frame);
  close(fd_b);

  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(first.data(), first.size()).ok());
  Frame decoded_frame;
  ASSERT_TRUE(assembler.Next(&decoded_frame));
  StatusOr<WireResponse> decoded = DecodeResponse(decoded_frame.body);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().approximate);  // the deadline forced MC

  EXPECT_EQ(first, second);
  EXPECT_EQ(daemon.idempotency_stats().owner, 1u);
  EXPECT_EQ(daemon.idempotency_stats().replayed, 1u);
  daemon.Stop();
}

TEST(ResilIdempotencyDaemonTest, ZeroCapacityDisablesDedup) {
  DaemonOptions options = AdoptOnlyOptions();
  options.idempotency_capacity = 0;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  WireRequest request(71, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  request.idempotency_key = 0x77;
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  const int fd = AdoptPair(daemon);
  const std::string raw = RoundTripRaw(fd, frame);
  EXPECT_FALSE(raw.empty());  // still answered, just not deduplicated
  close(fd);
  EXPECT_EQ(daemon.idempotency_stats().owner, 0u);
  daemon.Stop();
}

// --- retry_after_ns over the wire ------------------------------------------

TEST(ResilRetryAfterDaemonTest, SaturatedDaemonEmitsRetryAfterHintOnTheWire) {
  // The shed path end to end: a daemon with one admission slot must tell a
  // shed caller *when* to come back — on the wire, not just in-process.
  DaemonOptions options = AdoptOnlyOptions();
  options.workers = 4;
  options.server_options.max_in_flight = 1;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());
  // Distinct cold models per round: the plugger must actually compute (a
  // cache hit would free the slot before the probe arrives). Odd pool
  // indices carry the 3-node chain pattern — hundreds of ms of cold DP —
  // so they plug; even indices (2-node chains) are cheap probes.
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(20);

  bool observed_shed = false;
  for (std::size_t round = 0; round < 10 && !observed_shed; ++round) {
    WireRequest plugger(100 + round, serve::Request::Kind::kPatternProb, 0,
                        workload.models[2 * round + 1],
                        workload.patterns[2 * round + 1]);
    const std::string plug_frame =
        EncodeFrame(FrameType::kRequest, EncodeRequest(plugger));
    const int plug_fd = AdoptPair(daemon);
    ASSERT_EQ(
        send(plug_fd, plug_frame.data(), plug_frame.size(), MSG_NOSIGNAL),
        static_cast<ssize_t>(plug_frame.size()));
    usleep(20 * 1000);  // let a worker claim the only slot

    WireRequest probe(200 + round, serve::Request::Kind::kPatternProb, 0,
                      workload.models[2 * round],
                      workload.patterns[2 * round]);
    const int probe_fd = AdoptPair(daemon);
    const std::string raw = RoundTripRaw(
        probe_fd, EncodeFrame(FrameType::kRequest, EncodeRequest(probe)));
    close(probe_fd);
    FrameAssembler assembler;
    ASSERT_TRUE(assembler.Feed(raw.data(), raw.size()).ok());
    Frame frame;
    ASSERT_TRUE(assembler.Next(&frame));
    StatusOr<WireResponse> decoded = DecodeResponse(frame.body);
    ASSERT_TRUE(decoded.ok());
    if (decoded.value().status.code() == StatusCode::kResourceExhausted) {
      EXPECT_GT(decoded.value().retry_after_ns, 0u)
          << "shed response must carry the backoff hint";
      observed_shed = true;
    }
    RoundTripRaw(plug_fd, std::string());  // drain the plugger's answer
    close(plug_fd);
  }
  EXPECT_TRUE(observed_shed)
      << "ten cold plugs never saturated the single admission slot";
  daemon.Stop();
}

/// Reads until EOF (the daemon closes HTTP connections after responding).
std::string ReadUntilEof(int fd, int step_timeout_ms = 5000) {
  std::string all;
  char buffer[4096];
  while (true) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, step_timeout_ms) <= 0) break;
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    all.append(buffer, static_cast<std::size_t>(n));
  }
  return all;
}

TEST(ResilIdempotencyDaemonTest, HttpHeaderKeyReplaysIdenticalResponse) {
  // Every route takes the header: an evaluate query and a consensus query,
  // each against a fresh daemon.
  const std::string model =
      " \"model\": {\"m\": 4, \"insertion\": {\"phi\": 0.5},"
      "  \"labels\": [[0], [1], [0], [1]]},";
  const std::pair<std::string, std::string> inputs[] = {
      {"/query",
       "{\"id\": 5, \"kind\": \"pattern_prob\"," + model +
           " \"pattern\": {\"nodes\": [0, 1], \"edges\": [[0, 1]]}}"},
      {"/consensus", "{\"id\": 6," + model + " \"top_k\": 2}"},
  };
  for (const auto& [route, body] : inputs) {
    SCOPED_TRACE(route);
    Daemon daemon(AdoptOnlyOptions());
    ASSERT_TRUE(daemon.Start().ok());
    const std::string request =
        "POST " + route + " HTTP/1.1\r\nHost: t\r\n"
        "x-ppref-idempotency-key: 12345\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;

    int fd = AdoptPair(daemon);
    ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
    const std::string first = ReadUntilEof(fd);
    close(fd);
    fd = AdoptPair(daemon);
    ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
    const std::string second = ReadUntilEof(fd);
    close(fd);

    ASSERT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos) << first;
    EXPECT_EQ(first, second);
    const IdempotencyTable::Stats stats = daemon.idempotency_stats();
    EXPECT_EQ(stats.owner, 1u);
    EXPECT_EQ(stats.replayed, 1u);
    daemon.Stop();
  }
}

TEST(ResilIdempotencyDaemonTest, KeyReusedAcrossRoutesNeverReplaysAnotherKind) {
  // The kind is folded into the table key: the same header key on /query
  // and then /consensus executes both, each answering in its own shape.
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const std::string model =
      " \"model\": {\"m\": 4, \"insertion\": {\"phi\": 0.5},"
      "  \"labels\": [[0], [1], [0], [1]]},";
  const std::string query =
      "{\"id\": 5," + model + " \"pattern\": {\"nodes\": [0]}}";
  const std::string consensus = "{\"id\": 5," + model + " \"top_k\": 2}";
  std::string answers[2];
  int i = 0;
  for (const auto& [route, body] :
       {std::pair{"/query", query}, std::pair{"/consensus", consensus}}) {
    const std::string request =
        std::string("POST ") + route + " HTTP/1.1\r\nHost: t\r\n"
        "x-ppref-idempotency-key: 777\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    const int fd = AdoptPair(daemon);
    ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
    answers[i++] = ReadUntilEof(fd);
    close(fd);
  }
  EXPECT_NE(answers[0].find("\"probability\":"), std::string::npos);
  EXPECT_NE(answers[1].find("\"ranking\":"), std::string::npos);
  EXPECT_EQ(daemon.idempotency_stats().owner, 2u);
  EXPECT_EQ(daemon.idempotency_stats().replayed, 0u);
  daemon.Stop();
}

TEST(ResilIdempotencyDaemonTest, MalformedHttpKeyHeaderIsIgnored) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const std::string body =
      "{\"id\": 6, \"kind\": \"pattern_prob\","
      " \"model\": {\"m\": 3, \"insertion\": {\"phi\": 0.4},"
      "  \"labels\": [[0], [1], [2]]},"
      " \"pattern\": {\"nodes\": [0], \"edges\": []}}";
  const std::string request =
      "POST /query HTTP/1.1\r\nHost: t\r\n"
      "x-ppref-idempotency-key: not-a-number\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  const int fd = AdoptPair(daemon);
  ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  const std::string response = ReadUntilEof(fd);
  close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);  // served unkeyed
  EXPECT_EQ(daemon.idempotency_stats().owner, 0u);
  daemon.Stop();
}

}  // namespace
}  // namespace ppref::net
