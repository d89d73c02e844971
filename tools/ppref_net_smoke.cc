/// \file ppref_net_smoke.cc
/// \brief End-to-end smoke check against a running `ppref_served`:
/// health-check, binary ping, one binary query verified bit-identical
/// against local inference, the same query over HTTP/JSON, one HTTP
/// parameter sweep (each point checked against a fresh DP at that
/// dispersion), one hard-tier adaptive estimate and one consensus top-k
/// (each replayed byte-equal), and a /metrics scrape. Exits 0 iff every
/// step passed —
/// check.sh's daemon stage and any post-deploy sanity script run exactly
/// this.
///
/// Usage:
///   ppref_net_smoke --port P [--host H] [--expect-store-hits]
///
/// `--expect-store-hits` additionally asserts that the daemon's /metrics
/// report at least one persistent-store hit — the check a warm-restart
/// smoke runs against a daemon restarted on an existing --store-dir (the
/// queries above are then answered from disk, not recomputed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "ppref/infer/top_prob.h"
#include "ppref/net/client.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/rim_model.h"
#include "ppref/serve/workload.h"

namespace {

using namespace ppref;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  bool expect_store_hits = false;
};

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--expect-store-hits") {
      options.expect_store_hits = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--host") {
      options.host = argv[++i];
    } else if (flag == "--port") {
      options.port = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return options.port > 0;
}

int Fail(const char* step, const std::string& detail) {
  std::fprintf(stderr, "ppref_net_smoke: %s: %s\n", step, detail.c_str());
  return 1;
}

/// Renders the pool's pair 0 as a /query JSON document, rows spelled out as
/// %.17g so the daemon rebuilds the exact bits. `extra` is spliced in as
/// further top-level keys (a route's own fields).
std::string QueryJson(const infer::LabeledRimModel& model,
                      const infer::LabelPattern& pattern,
                      const std::string& extra = "") {
  char scratch[64];
  std::string json = "{\"id\": 42, \"kind\": \"pattern_prob\", \"model\": {";
  const rim::RimModel& rim = model.model();
  json += "\"reference\": [";
  for (unsigned p = 0; p < rim.size(); ++p) {
    if (p != 0) json += ", ";
    json += std::to_string(rim.reference().At(p));
  }
  json += "], \"insertion\": {\"rows\": [";
  for (unsigned t = 0; t < rim.size(); ++t) {
    if (t != 0) json += ", ";
    json += "[";
    const std::vector<double>& row = rim.insertion().Row(t);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j != 0) json += ", ";
      std::snprintf(scratch, sizeof(scratch), "%.17g", row[j]);
      json += scratch;
    }
    json += "]";
  }
  json += "]}, \"labels\": [";
  for (unsigned item = 0; item < model.labeling().item_count(); ++item) {
    if (item != 0) json += ", ";
    json += "[";
    const auto& labels = model.labeling().LabelsOf(item);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) json += ", ";
      json += std::to_string(labels[i]);
    }
    json += "]";
  }
  json += "]}, \"pattern\": {\"nodes\": [";
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    if (node != 0) json += ", ";
    json += std::to_string(pattern.NodeLabel(node));
  }
  json += "], \"edges\": [";
  bool first = true;
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    for (unsigned child : pattern.Children(node)) {
      if (!first) json += ", ";
      first = false;
      json += "[" + std::to_string(node) + ", " + std::to_string(child) + "]";
    }
  }
  json += "]}" + extra + "}";
  return json;
}

/// POSTs `json` to `route` and returns the body of a 200 answer; anything
/// else is reported under `step` and comes back empty.
std::optional<std::string> Post(const Options& options, const char* step,
                                const char* route, const std::string& json) {
  StatusOr<net::HttpResult> result =
      net::HttpFetch(options.host, options.port, "POST", route, json);
  if (!result.ok()) {
    Fail(step, result.status().ToString());
    return std::nullopt;
  }
  if (result->status_code != 200) {
    Fail(step, "status " + std::to_string(result->status_code) + ": " +
                   result->body);
    return std::nullopt;
  }
  return std::move(result).value().body;
}

/// Post, twice: the replay must be byte-equal (the answer is seeded and
/// the second call is served from the hard cache).
std::optional<std::string> PostReplayed(const Options& options,
                                        const char* step, const char* route,
                                        const std::string& json) {
  std::optional<std::string> first = Post(options, step, route, json);
  if (!first) return std::nullopt;
  const std::optional<std::string> replay = Post(options, step, route, json);
  if (!replay) return std::nullopt;
  if (*replay != *first) {
    Fail(step, "replay not byte-equal");
    return std::nullopt;
  }
  return first;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::fprintf(stderr, "usage: %s --port P [--host H]\n", argv[0]);
    return 2;
  }

  // 1. Liveness.
  StatusOr<net::HttpResult> health =
      net::HttpFetch(options.host, options.port, "GET", "/healthz");
  if (!health.ok()) return Fail("healthz", health.status().ToString());
  if (health->status_code != 200) {
    return Fail("healthz", "status " + std::to_string(health->status_code));
  }

  // 2. Binary ping.
  StatusOr<net::Client> connected =
      net::Client::Connect(options.host, options.port);
  if (!connected.ok()) return Fail("connect", connected.status().ToString());
  net::Client client = std::move(connected).value();
  Status pinged = client.Ping();
  if (!pinged.ok()) return Fail("ping", pinged.ToString());

  // 3. One binary query, checked bit-identical against local inference.
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(4);
  const double expected =
      infer::PatternProb(workload.models[0], workload.patterns[0]);
  net::WireRequest request(7, serve::Request::Kind::kPatternProb, 0,
                           workload.models[0], workload.patterns[0]);
  StatusOr<net::WireResponse> response = client.Call(request);
  if (!response.ok()) return Fail("binary query", response.status().ToString());
  if (!response->status.ok()) {
    return Fail("binary query", response->status.ToString());
  }
  if (response->probability != expected) {
    return Fail("binary query", "answer not bit-identical to local inference");
  }

  // 4. The same query over HTTP/JSON; %.17g round-trips the exact bits.
  const std::optional<std::string> http =
      Post(options, "http query", "/query",
           QueryJson(workload.models[0], workload.patterns[0]));
  if (!http) return 1;
  const std::size_t at = http->find("\"probability\":");
  if (at == std::string::npos) {
    return Fail("http query", "no probability in " + *http);
  }
  const double http_probability = std::strtod(
      http->c_str() + at + std::strlen("\"probability\":"), nullptr);
  if (http_probability != expected) {
    return Fail("http query", "JSON answer not bit-identical");
  }

  // 5. One HTTP parameter sweep: the same (structure, pattern) answered at
  // several dispersions from one cached circuit, each point checked against
  // a fresh DP with the model re-bound to that φ.
  const std::vector<double> grid = {0.25, 0.5, 0.75, 1.0};
  std::string params = ", \"params\": [";
  for (std::size_t k = 0; k < grid.size(); ++k) {
    if (k != 0) params += ", ";
    char scratch[32];
    std::snprintf(scratch, sizeof(scratch), "%.17g", grid[k]);
    params += scratch;
  }
  const std::optional<std::string> sweep =
      Post(options, "http sweep", "/sweep",
           QueryJson(workload.models[0], workload.patterns[0], params + "]"));
  if (!sweep) return 1;
  const std::size_t probs_at = sweep->find("\"probabilities\":[");
  if (probs_at == std::string::npos) {
    return Fail("http sweep", "no probabilities in " + *sweep);
  }
  const char* cursor =
      sweep->c_str() + probs_at + std::strlen("\"probabilities\":[");
  const infer::LabeledRimModel& sweep_model = workload.models[0];
  for (std::size_t k = 0; k < grid.size(); ++k) {
    char* after = nullptr;
    const double got = std::strtod(cursor, &after);
    if (after == cursor) return Fail("http sweep", "short probability list");
    cursor = *after == ',' ? after + 1 : after;
    const infer::LabeledRimModel rebound(
        rim::RimModel(sweep_model.model().reference(),
                      rim::InsertionFunction::Mallows(sweep_model.size(),
                                                      grid[k])),
        sweep_model.labeling());
    if (got != infer::PatternProb(rebound, workload.patterns[0])) {
      return Fail("http sweep", "point not bit-identical to a fresh DP");
    }
  }

  // 6. One hard-tier adaptive estimate over HTTP, replayed byte-equal: the
  // answer must be a sane probability.
  const std::optional<std::string> hard = PostReplayed(
      options, "http hard", "/hard",
      QueryJson(workload.models[0], workload.patterns[0],
                ", \"target\": 0.02"));
  if (!hard) return 1;
  const std::size_t est_at = hard->find("\"estimate\":");
  if (est_at == std::string::npos) {
    return Fail("http hard", "no estimate in " + *hard);
  }
  const double estimate = std::strtod(
      hard->c_str() + est_at + std::strlen("\"estimate\":"), nullptr);
  if (!(estimate >= 0.0 && estimate <= 1.0)) {
    return Fail("http hard", "estimate outside [0, 1]: " + *hard);
  }

  // 7. One consensus top-k query over HTTP (no pattern — the query ranks the
  // model's own items), also replayed byte-equal.
  const std::optional<std::string> consensus = PostReplayed(
      options, "http consensus", "/consensus",
      QueryJson(workload.models[0], infer::LabelPattern(), ", \"top_k\": 2"));
  if (!consensus) return 1;
  if (consensus->find("\"ranking\":[") == std::string::npos) {
    return Fail("http consensus", "no ranking in " + *consensus);
  }

  // 8. Metrics exposition includes both serve- and net-layer instruments.
  StatusOr<net::HttpResult> metrics =
      net::HttpFetch(options.host, options.port, "GET", "/metrics");
  if (!metrics.ok()) return Fail("metrics", metrics.status().ToString());
  if (metrics->status_code != 200 ||
      metrics->body.find("ppref_serve_requests_total") == std::string::npos ||
      metrics->body.find("ppref_net_requests_binary_total") ==
          std::string::npos ||
      metrics->body.find("ppref_net_requests_sweep_total") ==
          std::string::npos ||
      metrics->body.find("ppref_net_requests_hard_total") ==
          std::string::npos ||
      metrics->body.find("ppref_net_requests_consensus_total") ==
          std::string::npos ||
      metrics->body.find("ppref_hard_requests_total") == std::string::npos) {
    return Fail("metrics", "missing expected instruments");
  }

  // 9. Warm-restart assertion: the queries above must have been answered
  // from the persistent store, not recomputed.
  if (options.expect_store_hits) {
    // The sample line, not the "# HELP" comment naming the same metric.
    const char* name = "\nppref_serve_store_hits_total ";
    const std::size_t hits_at = metrics->body.find(name);
    if (hits_at == std::string::npos) {
      return Fail("store hits", "no store instruments in /metrics");
    }
    const double hits = std::strtod(
        metrics->body.c_str() + hits_at + std::strlen(name), nullptr);
    if (hits < 1.0) {
      return Fail("store hits",
                  "expected warm-from-disk answers, saw 0 store hits");
    }
  }

  std::printf("ppref_net_smoke: healthz, ping, binary query (bit-identical), "
              "json query (bit-identical), json sweep (bit-identical), "
              "json hard (byte-equal replay), json consensus (byte-equal "
              "replay), metrics%s — all ok\n",
              options.expect_store_hits ? ", store hits" : "");
  return 0;
}
