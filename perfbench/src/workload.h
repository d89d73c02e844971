/// \file workload.h
/// \brief The six perfbench workloads: what each sends, and the oracle
/// every answer is checked against.
///
/// Each workload sends one request class, so every end-to-end metric of a
/// workload describes that class alone. A class draws either from a pool
/// that set-up pre-warms (answers computed once, before timing) or from a
/// fresh stream that never repeats a query (answers checked after the
/// timed window).
///
/// | workload            | conns | class                  | source of queries     |
/// |---------------------|-------|------------------------|-----------------------|
/// | warm_rtt            | 2     | evaluate (1 in 120 as  | pre-warmed pool       |
/// |                     |       | HTTP `POST /query`)    |                       |
/// | cold_exact          | 1     | evaluate               | fresh, never seen     |
/// | analytics_sweep     | 1     | sweep (16 φ points)    | pooled shapes, fresh  |
/// |                     |       |                        | φ grids               |
/// | analytics_hard      | 1     | hard (CI target 0.02)  | fresh models          |
/// | analytics_consensus | 1     | consensus top-5        | fresh models          |
/// | store_restart       | 1     | evaluate               | pool 8x the caches,   |
/// |                     |       |                        | served from the store |

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "inputs.h"
#include "ppref/common/random.h"
#include "ppref/net/wire.h"
#include "ppref/serve/server.h"

namespace perfbench {

/// The request classes. kEval is the binary evaluate frame
/// (pattern_prob : top_matching = 3 : 1); kHttp the same query as
/// `POST /query`.
enum class Kind : unsigned { kEval, kHttp, kSweep, kHard, kConsensus };
inline constexpr unsigned kKinds = 5;
const char* KindName(Kind kind);

/// The fixed per-workload configuration.
struct WorkloadSpec {
  std::string name;
  unsigned connections = 1;
  /// The class every request belongs to (binary frames).
  Kind kind = Kind::kEval;
  /// Every `http_every`-th request of a connection goes as HTTP instead
  /// (kEval only; 0 = never).
  unsigned http_every = 0;
  std::size_t plan_capacity = 256;
  std::size_t result_capacity = 8192;
  bool store = false;
  /// store_restart: requests per daemon lifetime (0 = one daemon).
  unsigned cycle_requests = 0;
};

/// The spec of `name`, or nullptr for an unknown workload.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// What the daemon answered, in whichever fields the class uses.
struct Reply {
  double probability = 0.0;
  std::optional<ppref::infer::Matching> top_matching;
  std::vector<double> probabilities;
  ppref::net::WireHardResponse hard;
  ppref::net::WireConsensusResponse consensus;
};

/// One query, owning its wire form, with its expected answer once known.
struct Query {
  Kind kind = Kind::kEval;
  /// kEval / kHttp: the evaluate request and its `POST /query` body. The
  /// other classes fill their own wire request.
  std::optional<ppref::net::WireRequest> eval;
  std::string http_body;
  std::optional<ppref::net::WireSweepRequest> sweep;
  std::optional<ppref::net::WireHardRequest> hard;
  std::optional<ppref::net::WireConsensusRequest> consensus;
  /// Sweep points whose answers are checked against per-point DP.
  std::vector<std::size_t> checked_points;

  bool has_expected = false;
  Reply expected;
};

/// Computes `query.expected` in process: the DP for evaluate and sweep
/// points, `oracle` (a fresh in-process server with the daemon's sampling
/// options) for hard and consensus.
void ComputeExpected(Query& query, ppref::serve::Server& oracle);

/// True when `reply` is bit-identical to `query.expected`.
bool Matches(const Query& query, const Reply& reply);

/// The query generator of one workload under one seed. Pools are built
/// (answers included) at construction; fresh queries are made on demand.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::uint64_t seed,
            ppref::serve::Server& oracle);

  /// Per-connection draw state.
  struct Cursor {
    explicit Cursor(std::uint64_t seed) : rng(seed) {}
    ppref::Rng rng;
    /// Requests drawn so far on this connection; also the index into a
    /// fresh stream (fresh workloads have one connection).
    std::uint64_t sent = 0;
  };
  Cursor MakeCursor(unsigned connection) const;

  /// The next query of `cursor`, sent as `*slot` (the workload's class, or
  /// kHttp). Pool queries are shared (the pointer stays valid for the
  /// generator's life); fresh ones are owned by `fresh_out`, which the
  /// caller keeps until the answer is checked.
  const Query* Next(Cursor& cursor, Kind* slot,
                    std::unique_ptr<Query>* fresh_out);

  /// Every pooled query once: what set-up sends to warm the daemon.
  std::vector<const Query*> WarmSet() const;

  /// The small fixed query of the workload's class sent first to every new
  /// daemon.
  const Query& probe() const { return *probe_; }

 private:
  std::unique_ptr<Query> MakeFresh(std::uint64_t index) const;

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::unique_ptr<Query> probe_;
  /// Pre-warmed queries (evaluate pairs, or sweep shapes); empty when the
  /// workload's stream is fresh.
  std::vector<Query> pool_;
  /// Half of the evaluate draws fold onto the first half of the pool.
  bool hot_biased_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
