// The /metrics exposition of both serving roles, checked as a scraper sees
// it (tests/prom_check.h), plus the fixed-bucket histogram underneath.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/bucket_histogram.h"
#include "net/anon_http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/replication.h"
#include "prom_check.h"
#include "shard/sharded_service.h"

namespace kanon::net {
namespace {

using kanon::testing::PromLeSets;
using kanon::testing::PromProblems;

Domain SquareDomain() {
  Domain d;
  d.lo = {0, 0};
  d.hi = {100, 100};
  return d;
}

std::string GridBody(size_t n, size_t offset) {
  std::string body;
  for (size_t i = offset; i < offset + n; ++i) {
    body += std::to_string(i % 97) + "," + std::to_string((i * 7) % 89) +
            "," + std::to_string(i % 5) + "\n";
  }
  return body;
}

std::string Get(uint16_t port, const std::string& target) {
  HttpClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", port, 5.0).ok());
  auto resp = client.Get(target);
  EXPECT_TRUE(resp.ok());
  return resp.ok() ? resp->body : "";
}

void Post(uint16_t port, const std::string& body) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, 5.0).ok());
  auto resp = client.Post("/ingest", body);
  ASSERT_TRUE(resp.ok());
}

/// Asserts one scrape is a valid exposition and returns it.
std::string Scrape(uint16_t port) {
  const std::string text = Get(port, "/metrics");
  for (const std::string& problem : PromProblems(text)) {
    ADD_FAILURE() << problem;
  }
  return text;
}

struct Leader {
  std::unique_ptr<ShardedAnonymizationService> service;
  std::unique_ptr<AnonHttpFrontend> frontend;
  std::unique_ptr<HttpServer> server;

  Leader(size_t shards, const std::string& wal_dir) {
    ShardedServiceOptions options;
    options.sharding.num_shards = shards;
    options.service.anonymizer.base_k = 5;
    options.service.snapshot_every = 100;
    options.service.lsm.merge_every = 60;  // memtable on: merge histograms
    options.service.durability.wal_dir = wal_dir;
    auto service_or =
        ShardedAnonymizationService::Create(2, SquareDomain(), options);
    KANON_CHECK(service_or.ok());
    service = std::move(*service_or);
    frontend = std::make_unique<AnonHttpFrontend>(service.get());
    HttpServerOptions http;
    http.port = 0;
    http.num_threads = 2;
    server = std::make_unique<HttpServer>(
        http, [f = frontend.get()](const HttpRequest& r) {
          return f->Handle(r);
        });
    frontend->SetServerStats([s = server.get()] { return s->stats(); });
    KANON_CHECK(server->Start().ok());
  }
  ~Leader() {
    server->Shutdown();
    service->Stop();
  }
  uint16_t port() const { return server->bound_port(); }
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

class LeaderExpositionTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, LeaderExpositionTest,
                         ::testing::Values(size_t{1}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "Shards";
                         });

TEST_P(LeaderExpositionTest, ValidAndStableAcrossScrapes) {
  const std::string wal =
      FreshDir("prom_leader_wal_" + std::to_string(GetParam()));
  Leader leader(GetParam(), wal);
  for (size_t b = 0; b < 8; ++b) Post(leader.port(), GridBody(50, b * 50));
  leader.service->PublishNow();
  (void)Get(leader.port(), "/release?summary=1");
  const std::string first = Scrape(leader.port());
  EXPECT_NE(first.find("kanon_merge_duration_ms_bucket{shard="),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("kanon_http_request_latency_ms_bucket{endpoint="),
            std::string::npos);

  // Traffic of other shapes and latencies between the two scrapes.
  for (size_t b = 8; b < 16; ++b) Post(leader.port(), GridBody(50, b * 50));
  leader.service->PublishNow();
  (void)Get(leader.port(), "/release");
  (void)Get(leader.port(), "/release/query?k1=20");
  (void)Get(leader.port(), "/healthz");
  (void)Get(leader.port(), "/nope");
  const std::string second = Scrape(leader.port());

  const auto before = PromLeSets(first);
  const auto after = PromLeSets(second);
  for (const auto& [family, les] : before) {
    ASSERT_EQ(after.count(family), 1u) << family;
    EXPECT_EQ(after.at(family), les) << family << " moved its le bounds";
  }
  EXPECT_NE(second.find(
                "kanon_http_requests_total{endpoint=\"other\",code=\"404\"} 1"),
            std::string::npos)
      << second;
  std::filesystem::remove_all(wal);
}

TEST(FollowerExpositionTest, ValidStableAndSharesTheRequestSeries) {
  const std::string wal = FreshDir("prom_follower_wal");
  const std::string scratch = FreshDir("prom_follower_scratch");
  Leader leader(1, wal);
  Post(leader.port(), GridBody(200, 0));
  leader.service->PublishNow();

  FollowerOptions options;
  options.leader_port = leader.port();
  options.scratch_dir = scratch;
  options.poll_interval_ms = 5;
  ReplicatedFollower follower(SquareDomain(), options);
  FollowerFrontend frontend(&follower);
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 2;
  HttpServer server(http, [&frontend](const HttpRequest& r) {
    return frontend.Handle(r);
  });
  frontend.SetServerStats([&server] { return server.stats(); });
  ASSERT_TRUE(server.Start().ok());
  follower.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (follower.core()->epoch() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  (void)Get(server.port(), "/release?summary=1");
  const std::string first = Scrape(server.port());
  Post(server.port(), "1,2,3\n");  // 421: replicas take no writes
  (void)Get(server.port(), "/release/query?k1=20");
  (void)Get(server.port(), "/healthz");
  const std::string second = Scrape(server.port());

  const auto before = PromLeSets(first);
  for (const auto& [family, les] : PromLeSets(second)) {
    if (before.count(family) != 0) {
      EXPECT_EQ(before.at(family), les) << family;
    }
  }
  EXPECT_NE(second.find("kanon_http_requests_total{endpoint=\"ingest\","
                        "code=\"421\"} 1"),
            std::string::npos)
      << second;
  EXPECT_NE(second.find("kanon_http_request_latency_ms_bucket{endpoint="
                        "\"release\",le=\"+Inf\"} 2"),
            std::string::npos)
      << second;
  EXPECT_NE(second.find("kanon_http_connections_accepted_total"),
            std::string::npos);
  EXPECT_EQ(second.find("kanon_follower_requests_total"), std::string::npos);

  server.Shutdown();
  follower.Stop();
  std::filesystem::remove_all(wal);
  std::filesystem::remove_all(scratch);
}

// More observations than the old 8192-sample ring held, in process: the
// counts stay exact lifetime totals.
TEST(BucketHistogramTest, PastTheOldRingSizeCountsStayExact) {
  constexpr uint64_t kN = 10000;
  BucketHistogram h;
  RequestMetrics requests;
  double sum = 0.0;
  for (uint64_t i = 0; i < kN; ++i) {
    const double v = static_cast<double>(i % 997) * 0.37;
    h.Observe(v);
    sum += v;
    requests.Observe(Endpoint::kRelease, i % 3 == 0 ? 304 : 200, v);
  }
  EXPECT_EQ(h.count(), kN);
  EXPECT_DOUBLE_EQ(h.sum(), sum);

  std::string out = "# TYPE t histogram\n";
  AppendPromHistogram(&out, "t", "", h);
  requests.AppendTo(&out);
  EXPECT_TRUE(PromProblems(out).empty()) << out;
  EXPECT_NE(out.find("t_bucket{le=\"+Inf\"} 10000\n"), std::string::npos);
  EXPECT_NE(out.find("t_count 10000\n"), std::string::npos);
  EXPECT_NE(out.find("kanon_http_request_latency_ms_count{endpoint="
                     "\"release\"} 10000\n"),
            std::string::npos);
  EXPECT_NE(out.find("kanon_http_requests_total{endpoint=\"release\","
                     "code=\"304\"} 3334\n"),
            std::string::npos)
      << out;
}

TEST(BucketHistogramTest, BoundsAreInclusiveAndOverflowIsCounted) {
  BucketHistogram h;
  h.Observe(0.0);                               // first bucket
  h.Observe(BucketHistogram::kBounds[3]);       // exactly on a bound
  h.Observe(BucketHistogram::kBounds[3] * 1.01);  // just above it
  h.Observe(1e9);                               // past the last bound
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.bucket(BucketHistogram::kBounds.size()), 1u);
  EXPECT_EQ(h.count(), 4u);
  for (size_t b = 1; b < BucketHistogram::kBounds.size(); ++b) {
    EXPECT_LT(BucketHistogram::kBounds[b - 1], BucketHistogram::kBounds[b]);
  }
}

TEST(BucketHistogramTest, MergeAddsShardTotalsExactly) {
  BucketHistogram a;
  BucketHistogram b;
  for (int i = 0; i < 100; ++i) a.Observe(i * 0.5);
  for (int i = 0; i < 50; ++i) b.Observe(i * 20.0);
  BucketHistogram total;
  total.Merge(a);
  total.Merge(b);
  EXPECT_EQ(total.count(), 150u);
  EXPECT_DOUBLE_EQ(total.sum(), a.sum() + b.sum());
  for (size_t i = 0; i < BucketHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(total.bucket(i), a.bucket(i) + b.bucket(i)) << i;
  }
  const BucketHistogram copy = total;  // a stats struct carries a copy
  EXPECT_EQ(copy.count(), 150u);
  EXPECT_DOUBLE_EQ(copy.sum(), total.sum());
}

}  // namespace
}  // namespace kanon::net
