/// \file lifecycle_test.cc
/// \brief Graceful drain and slow-peer handling, driven deterministically
/// over adopted socketpairs: drain flushes in-flight work and refuses new
/// connections; a slow-loris peer is closed by the connection deadline
/// without wedging a worker.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "ppref/net/client.h"
#include "ppref/net/codec.h"
#include "ppref/net/daemon.h"
#include "ppref/serve/workload.h"

namespace ppref::net {
namespace {

int AdoptPair(Daemon& daemon) {
  int fds[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(daemon.AdoptConnection(fds[1]).ok());
  return fds[0];
}

bool WaitForEof(int fd, int timeout_ms = 10000) {
  char buffer[4096];
  while (true) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return false;
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

TEST(NetLifecycleTest, DrainWithNoConnectionsJoinsPromptly) {
  DaemonOptions options;
  options.port = -1;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());
  daemon.RequestDrain();
  daemon.Join();  // must return; the ctest timeout is the failure detector
  EXPECT_TRUE(daemon.draining());
}

TEST(NetLifecycleTest, DrainDeliversInFlightAnswerThenCloses) {
  DaemonOptions options;
  options.port = -1;
  options.workers = 2;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  const int fd = AdoptPair(daemon);
  WireRequest request(31, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  // Wait until the request is genuinely in flight (dispatched to a
  // worker), then drain. The contract under test: an in-flight answer is
  // computed, flushed, and only then is the connection closed — never a
  // silent drop. (A request shed *during* drain instead answers
  // kResourceExhausted; both are well-formed outcomes below.)
  while (daemon.server().Snapshot().requests < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.RequestDrain();

  FrameAssembler assembler;
  Frame response_frame;
  char buffer[4096];
  bool got_response = false;
  bool got_eof = false;
  while (!got_eof) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(poll(&p, 1, 10000), 0) << "no drain outcome within 10s";
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    ASSERT_TRUE(assembler.Feed(buffer, static_cast<std::size_t>(n)).ok());
    while (assembler.Next(&response_frame)) {
      ASSERT_FALSE(got_response) << "more than one response";
      got_response = true;
      StatusOr<WireResponse> response = DecodeResponse(response_frame.body);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->id, 31u);
      EXPECT_TRUE(response->status.ok() ||
                  response->status.code() == StatusCode::kResourceExhausted)
          << response->status.ToString();
    }
  }
  EXPECT_TRUE(got_response);
  close(fd);
  daemon.Join();
}

TEST(NetLifecycleTest, DrainDeliversInFlightSweepThenCloses) {
  DaemonOptions options;
  options.port = -1;
  options.workers = 2;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  const int fd = AdoptPair(daemon);
  WireSweepRequest request(61, 0, workload.models[0], workload.patterns[0],
                           {{0.3}, {0.6}, {0.9}});
  const std::string frame =
      EncodeFrame(FrameType::kSweepRequest, EncodeSweepRequest(request));
  ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  // Wait until the sweep reached the serve layer, then drain: the in-flight
  // answer (or a well-formed shed refusal) must flush before the close.
  while (daemon.server().Snapshot().sweep_requests < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.RequestDrain();

  FrameAssembler assembler;
  Frame response_frame;
  char buffer[4096];
  bool got_response = false;
  bool got_eof = false;
  while (!got_eof) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(poll(&p, 1, 10000), 0) << "no drain outcome within 10s";
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    ASSERT_TRUE(assembler.Feed(buffer, static_cast<std::size_t>(n)).ok());
    while (assembler.Next(&response_frame)) {
      ASSERT_FALSE(got_response) << "more than one response";
      got_response = true;
      ASSERT_EQ(response_frame.type, FrameType::kSweepResponse);
      StatusOr<WireSweepResponse> response =
          DecodeSweepResponse(response_frame.body);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->id, 61u);
      if (response->status.ok()) {
        EXPECT_EQ(response->probabilities.size(), 3u);
      } else {
        EXPECT_EQ(response->status.code(), StatusCode::kResourceExhausted)
            << response->status.ToString();
      }
    }
  }
  EXPECT_TRUE(got_response);
  close(fd);
  daemon.Join();
}

TEST(NetLifecycleTest, DrainShedsEveryKindWithItsPairedResponse) {
  DaemonOptions options;
  options.port = -1;
  options.workers = 2;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());

  // The slow request keeps the connection open through the drain: a cold
  // 3-node chain over 24 items (a few hundred ms of DP), while the four
  // frames below take microseconds to arrive.
  const serve::SyntheticWorkload workload =
      serve::MakeSyntheticWorkload(2, /*base_items=*/20);
  const int fd = AdoptPair(daemon);
  WireRequest slow(70, serve::Request::Kind::kPatternProb, 0,
                   workload.models[1], workload.patterns[1]);
  const std::string slow_frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(slow));
  ASSERT_EQ(send(fd, slow_frame.data(), slow_frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(slow_frame.size()));
  while (daemon.server().Snapshot().requests < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.RequestDrain();

  // One pipelined frame of each kind, sent after the drain began.
  const infer::LabeledRimModel& model = workload.models[0];
  const infer::LabelPattern& pattern = workload.patterns[0];
  const std::string burst =
      EncodeFrame(FrameType::kRequest,
                  EncodeRequest(WireRequest(
                      71, serve::Request::Kind::kPatternProb, 0, model,
                      pattern))) +
      EncodeFrame(FrameType::kSweepRequest,
                  EncodeSweepRequest(
                      WireSweepRequest(72, 0, model, pattern, {{0.5}}))) +
      EncodeFrame(FrameType::kHardRequest,
                  EncodeHardRequest(WireHardRequest(73, 0, 0.0, model,
                                                    pattern))) +
      EncodeFrame(FrameType::kConsensusRequest,
                  EncodeConsensusRequest(
                      WireConsensusRequest(74, 0, 2, model)));
  ASSERT_EQ(send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  FrameAssembler assembler;
  Frame frame;
  char buffer[4096];
  std::set<std::uint64_t> shed;
  bool got_eof = false;
  while (!got_eof) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(poll(&p, 1, 60000), 0) << "no drain outcome within 60s";
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    ASSERT_TRUE(assembler.Feed(buffer, static_cast<std::size_t>(n)).ok());
    while (assembler.Next(&frame)) {
      std::uint64_t id = 0;
      Status status;
      switch (frame.type) {
        case FrameType::kResponse: {
          StatusOr<WireResponse> response = DecodeResponse(frame.body);
          ASSERT_TRUE(response.ok());
          id = response->id;
          status = response->status;
          break;
        }
        case FrameType::kSweepResponse: {
          StatusOr<WireSweepResponse> response =
              DecodeSweepResponse(frame.body);
          ASSERT_TRUE(response.ok());
          EXPECT_EQ(response->id, 72u);
          id = response->id;
          status = response->status;
          break;
        }
        case FrameType::kHardResponse: {
          StatusOr<WireHardResponse> response = DecodeHardResponse(frame.body);
          ASSERT_TRUE(response.ok());
          EXPECT_EQ(response->id, 73u);
          id = response->id;
          status = response->status;
          break;
        }
        case FrameType::kConsensusResponse: {
          StatusOr<WireConsensusResponse> response =
              DecodeConsensusResponse(frame.body);
          ASSERT_TRUE(response.ok());
          EXPECT_EQ(response->id, 74u);
          id = response->id;
          status = response->status;
          break;
        }
        default:
          FAIL() << "unexpected frame type "
                 << static_cast<int>(frame.type);
      }
      if (id == 70) continue;  // the in-flight request, answered normally
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
          << status.ToString();
      EXPECT_TRUE(shed.insert(id).second) << "id " << id << " answered twice";
    }
  }
  EXPECT_EQ(shed, (std::set<std::uint64_t>{71, 72, 73, 74}));
  close(fd);
  daemon.Join();
}

TEST(NetLifecycleTest, DrainRefusesNewAdoptions) {
  DaemonOptions options;
  options.port = -1;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());
  daemon.RequestDrain();
  daemon.Join();

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_FALSE(daemon.AdoptConnection(fds[1]).ok());  // closes the fd
  close(fds[0]);
}

TEST(NetLifecycleTest, SlowLorisIsClosedByConnectionDeadline) {
  DaemonOptions options;
  options.port = -1;
  options.workers = 1;
  options.connection_deadline_ns = 50ull * 1000 * 1000;  // 50ms
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());

  // Dribble a frame header prefix and then stall: the daemon must cut the
  // connection at the deadline even though bytes arrived.
  const int slow = AdoptPair(daemon);
  ASSERT_GT(send(slow, "PPRF", 4, MSG_NOSIGNAL), 0);
  EXPECT_TRUE(WaitForEof(slow)) << "slow-loris connection never closed";
  close(slow);

  // The single worker was never wedged: a fresh connection still gets a
  // complete answer (its own computation suspends the deadline).
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  Client client = Client::FromFd(AdoptPair(daemon));
  WireRequest request(41, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  StatusOr<WireResponse> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  daemon.Stop();
}

TEST(NetLifecycleTest, StopIsIdempotentAndDestructorSafe) {
  auto daemon = std::make_unique<Daemon>([] {
    DaemonOptions options;
    options.port = -1;
    return options;
  }());
  ASSERT_TRUE(daemon->Start().ok());
  daemon->Stop();
  daemon->Stop();
  daemon.reset();  // destructor must not deadlock or double-free
}

TEST(NetLifecycleTest, StopWithoutStartIsSafe) {
  DaemonOptions options;
  options.port = -1;
  Daemon daemon(std::move(options));
  daemon.Stop();
}

}  // namespace
}  // namespace ppref::net
