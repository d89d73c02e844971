/// \file obs_integration_test.cc
/// \brief Server ↔ obs integration: registry-backed ServerStats, scrape
/// validity, trace timeline accounting, registry injection, and the
/// determinism guarantee with instrumentation fully enabled (run under TSan
/// by scripts/check.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/infer/top_prob.h"
#include "ppref/obs/metrics.h"
#include "ppref/obs/trace.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/serve/server.h"

namespace ppref::serve {
namespace {

/// m-item Mallows with item i carrying label i % 3.
infer::LabeledRimModel MakeModel(unsigned m, double phi) {
  infer::ItemLabeling labeling(m);
  for (unsigned item = 0; item < m; ++item) labeling.AddLabel(item, item % 3);
  return infer::LabeledRimModel(
      rim::MallowsModel(rim::Ranking::Identity(m), phi).rim(), labeling);
}

/// Chain pattern l0 -> l1 -> ... over the given labels.
infer::LabelPattern Chain(const std::vector<unsigned>& labels) {
  infer::LabelPattern pattern;
  std::vector<unsigned> nodes;
  for (unsigned label : labels) nodes.push_back(pattern.AddNode(label));
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    pattern.AddEdge(nodes[i - 1], nodes[i]);
  }
  return pattern;
}

std::vector<Request> MakeBatch(const infer::LabeledRimModel& model,
                               const std::vector<infer::LabelPattern>& patterns,
                               std::size_t count) {
  std::vector<Request> requests;
  for (std::size_t i = 0; i < count; ++i) {
    Request request;
    request.model = &model;
    request.pattern = &patterns[i % patterns.size()];
    requests.push_back(request);
  }
  return requests;
}

TEST(ServeObsTest, ScrapeMetricsIsWellFormedPrometheusAndReflectsTraffic) {
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const std::vector<infer::LabelPattern> patterns = {Chain({0, 1}),
                                                     Chain({1, 2, 0})};
  Server server;
  server.EvaluateBatch(MakeBatch(model, patterns, 10));

  const std::string text = server.ScrapeMetrics();
  // Counter totals appear with the observed values.
  EXPECT_NE(text.find("ppref_serve_requests_total 10"), std::string::npos);
  EXPECT_NE(text.find("ppref_serve_batches_total 1"), std::string::npos);
  // 10 requests folded onto 2 unique units.
  EXPECT_NE(text.find("ppref_serve_batch_deduped_total 8"), std::string::npos);
  // Histograms expose the full triplet plus the companion max gauge.
  EXPECT_NE(text.find("# TYPE ppref_serve_request_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ppref_serve_request_latency_ns_count 10"),
            std::string::npos);
  EXPECT_NE(text.find("ppref_serve_request_latency_ns_bucket{le=\"+Inf\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("ppref_serve_request_latency_ns_max"),
            std::string::npos);
  // A private-registry server folds the process-wide engine counters into
  // its scrape, so one endpoint tells the whole story.
  EXPECT_NE(text.find("ppref_infer_dp_runs_total"), std::string::npos);
  // Every line is either a comment or `name[{labels}] value`.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0)
          << line;
    } else {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
      EXPECT_EQ(line.find('\t'), std::string::npos) << line;
    }
  }
}

TEST(ServeObsTest, SnapshotViewsRegistryInstruments) {
  const infer::LabeledRimModel model = MakeModel(6, 0.6);
  const std::vector<infer::LabelPattern> patterns = {Chain({0, 2})};
  Server server;
  server.EvaluateBatch(MakeBatch(model, patterns, 4));
  server.EvaluateBatch(MakeBatch(model, patterns, 4));

  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_deduped, 6u);
  EXPECT_EQ(stats.result_cache.misses, 1u);
  // Batch 2 is a pure result-cache hit.
  EXPECT_EQ(stats.result_cache.hits, 1u);
  EXPECT_GT(stats.compile_ns, 0u);
  EXPECT_GT(stats.execute_ns, 0u);
  EXPECT_EQ(stats.in_flight, 0u);

  // The same numbers back the registry directly.
  const obs::MetricsSnapshot scrape = server.registry().Snapshot();
  const obs::MetricSample* requests =
      scrape.Find("ppref_serve_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->counter_value, 8u);
}

TEST(ServeObsTest, TraceTimelineCoversTheEnvelope) {
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const std::vector<infer::LabelPattern> patterns = {Chain({0, 1, 2}),
                                                     Chain({2, 1})};
  ServerOptions options;
  options.trace_sample_permyriad = 10000;  // trace everything
  Server server(options);
  server.EvaluateBatch(MakeBatch(model, patterns, 6));
  server.EvaluateBatch(MakeBatch(model, patterns, 6));  // cache-hit round

  // One trace per deduped unit: 2 unique patterns per batch, 2 batches.
  const std::vector<obs::TraceRecord> traces = server.DumpTraces();
  ASSERT_EQ(traces.size(), 4u);
  bool saw_cache_hit = false;
  bool saw_execute = false;
  for (const obs::TraceRecord& trace : traces) {
    EXPECT_NE(trace.fingerprint, 0u);
    EXPECT_GE(trace.end_ns, trace.start_ns);
    EXPECT_EQ(trace.status_code, 0u);  // kOk
    EXPECT_FALSE(trace.approximate);
    // The stage timeline never exceeds the envelope, and covers most of it
    // (the stages telescope; only clock-read glue is untimed).
    EXPECT_LE(trace.StageTotalNs(), trace.TotalNs());
    if (trace.cache_hit) {
      saw_cache_hit = true;
      EXPECT_EQ(trace.stage_ns[static_cast<unsigned>(obs::Stage::kDpExecute)],
                0u);
    } else {
      saw_execute = true;
      EXPECT_GT(trace.stage_ns[static_cast<unsigned>(obs::Stage::kDpExecute)],
                0u);
    }
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_cache_hit);

  // The JSON dump carries every record.
  const std::string json = server.DumpTracesJson();
  EXPECT_NE(json.find("\"traces\": ["), std::string::npos);
  EXPECT_NE(json.find("\"dp_execute\""), std::string::npos);
}

TEST(ServeObsTest, TraceRingIsBoundedAndCountsPublishes) {
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const std::vector<infer::LabelPattern> patterns = {Chain({0, 1})};
  ServerOptions options;
  options.trace_sample_permyriad = 10000;
  options.trace_capacity = 3;
  Server server(options);
  for (int round = 0; round < 5; ++round) {
    server.EvaluateBatch(MakeBatch(model, patterns, 2));
  }
  EXPECT_EQ(server.DumpTraces().size(), 3u);
  // Five batches of one unique unit each published five records.
  const std::string text = server.ScrapeMetrics();
  EXPECT_NE(text.find("ppref_serve_traces_published 5"), std::string::npos);
}

TEST(ServeObsTest, SweepTraceKeepsItsCircuitEvalTime) {
  // A sweep's record is published only after its circuit-eval span closed,
  // so the stage doing the work shows up and the stages fit the envelope.
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  ServerOptions options;
  options.trace_sample_permyriad = 10000;
  Server server(options);
  std::vector<std::vector<double>> params;
  for (int i = 1; i <= 64; ++i) params.push_back({i / 64.0});
  ASSERT_TRUE(server.PatternProbSweep(model, pattern, params).ok());

  const std::vector<obs::TraceRecord> traces = server.DumpTraces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceRecord& trace = traces.front();
  EXPECT_EQ(trace.status_code, 0u);  // kOk
  EXPECT_GT(trace.stage_ns[static_cast<unsigned>(obs::Stage::kCircuitEval)],
            0u);
  EXPECT_LE(trace.StageTotalNs(), trace.TotalNs());
}

TEST(ServeObsTest, HistogramsOffStillCountsRequests) {
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const std::vector<infer::LabelPattern> patterns = {Chain({0, 1})};
  ServerOptions options;
  options.latency_histograms = false;
  Server server(options);
  server.EvaluateBatch(MakeBatch(model, patterns, 5));
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_GT(stats.execute_ns, 0u);
  const std::string text = server.ScrapeMetrics();
  EXPECT_NE(text.find("ppref_serve_requests_total 5"), std::string::npos);
  // The latency histograms exist but stay empty.
  EXPECT_NE(text.find("ppref_serve_request_latency_ns_count 0"),
            std::string::npos);
}

TEST(ServeObsTest, InjectedRegistryReceivesTheInstruments) {
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const std::vector<infer::LabelPattern> patterns = {Chain({1, 2})};
  obs::MetricsRegistry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(options);
  server.EvaluateBatch(MakeBatch(model, patterns, 3));

  EXPECT_EQ(&server.registry(), &registry);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const obs::MetricSample* requests =
      snapshot.Find("ppref_serve_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->counter_value, 3u);
  // An injected registry is the caller's aggregation point: the scrape
  // renders exactly it, without folding in the process-wide registry.
  const std::string text = server.ScrapeMetrics();
  EXPECT_EQ(text.find("ppref_infer_dp_runs_total"), std::string::npos);
}

TEST(ServeObsTest, AnswersStayBitIdenticalWithFullInstrumentation) {
  const infer::LabeledRimModel model = MakeModel(7, 0.45);
  const std::vector<infer::LabelPattern> patterns = {
      Chain({0, 1}), Chain({1, 2, 0}), Chain({2})};
  ServerOptions options;
  options.trace_sample_permyriad = 10000;
  options.threads = 4;
  Server server(options);
  const std::vector<Request> batch = MakeBatch(model, patterns, 12);
  const std::vector<Response> responses = server.EvaluateBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok());
    // The determinism guarantee is unchanged by tracing: every answer is
    // bit-identical to a fresh serial inference call.
    EXPECT_EQ(responses[i].probability,
              infer::PatternProb(model, *batch[i].pattern));
  }
}

}  // namespace
}  // namespace ppref::serve
