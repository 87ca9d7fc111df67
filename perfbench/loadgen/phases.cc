#include "phases.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "agrawal.h"
#include "checks.h"
#include "http_client.h"

namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

// Windows of a phase's throughput. Ingest uses 40 (10,000 records each), so
// that the few windows holding a checkpoint's disk-bound stall cannot
// decide the median; the read mix has no such stalls.
constexpr size_t kIngestChunks = 40;
constexpr size_t kReadChunks = 10;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool AcceptedAll(const HttpReply& r, uint64_t lines) {
  return r.status == 200 &&
         r.body == "{\"accepted\":" + std::to_string(lines) + "}";
}

std::vector<Record> MakeRecords(uint64_t seed, uint64_t n) {
  std::vector<Record> out(n);
  for (uint64_t i = 0; i < n; ++i) out[i] = MakeRecord(seed, i);
  return out;
}

// First error seen by any thread, for the run's log.
class FirstError {
 public:
  void Note(const std::string& e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_.empty()) error_ = e;
  }
  std::string Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  std::mutex mu_;
  std::string error_;
};

// Throughput robust to the host's slow spells: the phase's completions are
// cut into `chunks` runs of equal count, and the median of their rates is
// reported. `done` holds each completion's time since the phase started
// and how many units it completed.
double MedianChunkRate(std::vector<std::pair<double, uint64_t>> done,
                       size_t chunks) {
  if (done.empty()) return 0.0;
  std::sort(done.begin(), done.end());
  uint64_t total = 0;
  for (const auto& d : done) total += d.second;
  std::vector<double> rates;
  uint64_t units = 0, chunk_units = 0;
  double chunk_start = 0.0;
  size_t next = 1;
  for (const auto& [t, n] : done) {
    units += n;
    chunk_units += n;
    if (units * chunks >= total * next) {
      if (t > chunk_start) {
        rates.push_back(static_cast<double>(chunk_units) / (t - chunk_start));
      }
      chunk_start = t;
      chunk_units = 0;
      ++next;
    }
  }
  return Percentile(rates, 0.5);
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string NdjsonBatch(uint64_t seed, uint64_t begin, uint64_t n) {
  std::string body;
  body.reserve(n * 96);
  for (uint64_t i = 0; i < n; ++i) {
    if (i > 0) body += '\n';
    AppendCsv(MakeRecord(seed, begin + i), &body);
  }
  return body;
}

IngestResult RunIngest(uint16_t port, uint64_t seed, uint64_t records,
                       uint64_t writers, uint64_t batch) {
  const uint64_t batches = (records + batch - 1) / batch;
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> failed_records{0};
  std::atomic<uint64_t> failed_posts{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> writers_left{writers};
  std::vector<std::vector<double>> lat(writers);
  std::vector<std::vector<std::pair<double, uint64_t>>> done(writers);
  std::vector<double> staleness;
  IngestResult result;
  FirstError error;

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      HttpConn conn(port);
      HttpReply reply;
      for (uint64_t b = w; b < batches; b += writers) {
        const uint64_t begin = b * batch;
        const uint64_t n = std::min(batch, records - begin);
        const std::string body = NdjsonBatch(seed, begin, n);
        const auto start = Clock::now();
        conn.Request("POST", "/ingest", body, &reply);
        lat[w].push_back(Since(start) * 1e3);
        bytes_sent += body.size();
        if (AcceptedAll(reply, n)) {
          acked += n;
          done[w].emplace_back(Since(t0), n);
        } else {
          failed_records += n;
          ++failed_posts;
          error.Note("POST /ingest " + std::to_string(reply.status) + ": " +
                     reply.body.substr(0, 200));
        }
      }
      --writers_left;
    });
  }
  // The reader's fields are read only after join.
  threads.emplace_back([&] {
    HttpConn conn(port);
    HttpReply reply;
    while (writers_left.load() > 0) {
      const uint64_t before = acked.load();
      conn.Get("/release/query?summary=1", &reply);
      if (reply.status == 503) continue;  // nothing published yet
      uint64_t seen = 0, min_part = 0, epoch = 0;
      if (reply.status != 200 ||
          !ParseSummary(reply.body, &seen, &min_part, &epoch)) {
        ++result.probe_errors;
        error.Note("summary probe " + std::to_string(reply.status));
        continue;
      }
      ++result.summary_reads;
      staleness.push_back(static_cast<double>(before) -
                          static_cast<double>(seen));
    }
  });
  for (auto& t : threads) t.join();
  result.elapsed_s = Since(t0);

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::vector<std::pair<double, uint64_t>> completions;
  for (const auto& v : done) completions.insert(completions.end(), v.begin(), v.end());
  result.posts = all.size();
  result.failed_posts = failed_posts.load();
  result.failed_records = failed_records.load();
  result.acked = acked.load();
  result.bytes_sent = bytes_sent.load();
  result.rec_per_s = MedianChunkRate(std::move(completions), kIngestChunks);
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  result.staleness_p50 = Percentile(staleness, 0.50);
  result.error = error.Get();
  return result;
}

bool WaitHealthz(uint16_t port, double timeout_s) {
  HttpConn conn(port);
  const auto t0 = Clock::now();
  HttpReply reply;
  while (Since(t0) < timeout_s) {
    if (conn.Get("/healthz", &reply) && reply.status == 200) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

bool WaitRecords(uint16_t port, uint64_t records, double timeout_s) {
  HttpConn conn(port);
  const auto t0 = Clock::now();
  HttpReply reply;
  while (Since(t0) < timeout_s) {
    uint64_t seen = 0, min_part = 0, epoch = 0;
    if (conn.Get("/release/query?summary=1", &reply) && reply.status == 200 &&
        ParseSummary(reply.body, &seen, &min_part, &epoch) &&
        seen == records) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

VerifyResult VerifyRelease(uint16_t port, uint64_t seed, uint64_t records,
                           uint64_t k, uint64_t k1) {
  HttpConn conn(port);
  const auto acked = MakeRecords(seed, records);
  Release base, coarse;
  std::string error;
  // Both bodies must come from one publication point.
  for (int attempt = 0; attempt < 20; ++attempt) {
    HttpReply r1, r2;
    conn.Get("/release?rids=1", &r1);
    conn.Get("/release/query?k1=" + std::to_string(k1) + "&rids=1", &r2);
    if (r1.status != 200 || r2.status != 200 ||
        !ParseRelease(r1.body, &base) || !ParseRelease(r2.body, &coarse)) {
      error = "release fetch failed: " + std::to_string(r1.status) + "/" +
              std::to_string(r2.status);
      continue;
    }
    error.clear();
    if (base.epoch == coarse.epoch) break;
  }
  VerifyResult result;
  result.checks = kIngestAggregateChecks;
  if (!error.empty()) {
    result.violations.push_back(error);
    result.failed_checks = kIngestAggregateChecks;
    result.uncovered = records;
    return result;
  }
  const ReleaseCheck c = CheckIngestRelease(base, coarse, acked, k, k1);
  result.violations = c.violations;
  result.failed_checks =
      std::min<uint64_t>(c.violations.size(), kIngestAggregateChecks);
  result.uncovered = c.records_uncovered;
  result.ncp = c.ncp;
  result.epoch = base.epoch;
  result.partitions = base.partitions.size();
  return result;
}

ReplicaResult WaitReplica(uint16_t leader, uint16_t follower,
                          double timeout_s) {
  HttpConn lconn(leader);
  HttpConn fconn(follower);
  const auto t0 = Clock::now();
  HttpReply lr, fr;
  ReplicaResult result;
  lconn.Get("/release", &lr);
  result.leader_status = lr.status;
  while (Since(t0) < timeout_s) {
    if (fconn.Get("/release", &fr) && fr.status == 200 &&
        SameBody(lr.body, fr.body)) {
      result.identical = lr.status == 200;
      result.bytes = fr.body.size();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.follower_status = fr.status;
  return result;
}

ReadResult RunRead(const ReadParams& p) {
  const auto& domain = Domain();
  struct Sample {
    std::vector<double> query, release, coarse, dp;
    std::vector<std::pair<double, uint64_t>> done;  // completion times
    uint64_t requests = 0, failed = 0, response_bytes = 0;
  };
  std::vector<Sample> samples(p.readers);
  FirstError error;
  std::mutex mu;  // guards the two maps and the identity counters
  std::map<uint64_t, std::string> leader_body, follower_body;  // by epoch
  ReadResult result;

  // Replica identity at a shared publication point: compare whenever the
  // base release of one epoch has been seen from both servers.
  auto note_body = [&](bool from_leader, const std::string& body) {
    uint64_t epoch = 0, rec = 0, mp = 0;
    if (!ParseSummary(body, &rec, &mp, &epoch)) return;
    std::lock_guard<std::mutex> lock(mu);
    auto& mine = from_leader ? leader_body : follower_body;
    auto& theirs = from_leader ? follower_body : leader_body;
    if (mine.count(epoch) != 0) return;
    auto it = theirs.find(epoch);
    if (it == theirs.end()) {
      mine[epoch] = body;
      return;
    }
    ++result.identity_checked;
    if (!SameBody(it->second, body)) ++result.identity_mismatch;
    theirs.erase(theirs.begin(), std::next(it));
    mine.erase(mine.begin(), mine.upper_bound(epoch));
  };

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (uint64_t r = 0; r < p.readers; ++r) {
    threads.emplace_back([&, r] {
      // One connection per reader, reopened when a cycle changes server,
      // so the load never holds more connections than clients.
      std::unique_ptr<HttpConn> conn;
      int conn_target = -1;
      HttpReply reply;
      Sample& s = samples[r];
      auto run = [&](int target, const std::string& path,
                     std::vector<double>* lat) {
        if (target != conn_target) {
          conn = std::make_unique<HttpConn>(target == 0 ? p.leader
                                                        : p.follower);
          conn_target = target;
        }
        const auto start = Clock::now();
        conn->Get(path, &reply);
        lat->push_back(Since(start) * 1e3);
        s.done.emplace_back(Since(t0), 1);
        ++s.requests;
        s.response_bytes += reply.body.size();
        if (reply.status != 200) {
          ++s.failed;
          error.Note(path + " -> " + std::to_string(reply.status));
          return false;
        }
        return true;
      };
      for (uint64_t c = 0; c < p.cycles; ++c) {
        const int target = static_cast<int>((c + r) % 2);
        for (const uint64_t mult : {1, 2, 4, 8}) {
          const uint64_t k1 = p.k * mult;
          if (!run(target, "/release/query?summary=1&k1=" + std::to_string(k1),
                   &s.query)) {
            continue;
          }
          uint64_t rec = 0, min_part = 0, epoch = 0;
          if (!ParseSummary(reply.body, &rec, &min_part, &epoch) ||
              min_part < k1) {
            ++s.failed;
            error.Note("summary k1=" + std::to_string(k1) + ": " +
                       reply.body.substr(0, 200));
          }
        }
        // Every second cycle fetches a full body, alternating between base
        // and coarse granularity.
        const uint64_t k1 = (c / 2) % 2 == 0 ? p.k : 8 * p.k;
        const std::string path =
            k1 == p.k ? "/release" : "/release/query?k1=" + std::to_string(k1);
        if (c % 2 == 1 &&
            run(target, path, k1 == p.k ? &s.release : &s.coarse)) {
          const std::string bad = CheckFullBody(reply.body, k1);
          if (!bad.empty()) {
            ++s.failed;
            error.Note(path + ": " + bad);
          } else if (k1 == p.k) {
            note_body(target == 0, reply.body);
          }
        }
        if (run(target, "/release/dp?epsilon=1", &s.dp)) {
          const std::string bad = CheckDpBody(reply.body);
          if (!bad.empty()) {
            ++s.failed;
            error.Note("/release/dp: " + bad);
          }
        }
        // A seeded query box covering 40% of every attribute's range.
        std::string lo, hi;
        for (size_t d = 0; d < kDim; ++d) {
          const double span = domain[d].second - domain[d].first;
          const double u =
              static_cast<double>(Mix(p.seed ^ (r << 40) ^ (c << 8) ^ d) %
                                  1000) / 1000.0;
          const double l = domain[d].first + u * 0.6 * span;
          if (d > 0) {
            lo += ',';
            hi += ',';
          }
          lo += std::to_string(static_cast<int64_t>(l));
          hi += std::to_string(static_cast<int64_t>(l + 0.4 * span));
        }
        if (run(target,
                "/release/dp/query?lo=" + lo + "&hi=" + hi + "&epsilon=1",
                &s.dp) &&
            reply.body.find("\"count\":") == std::string::npos) {
          ++s.failed;
          error.Note("/release/dp/query: " + reply.body.substr(0, 200));
        }
      }
    });
  }
  const size_t reader_threads = threads.size();
  std::vector<double> trickle_lat;
  std::vector<double> trickle_late;
  threads.emplace_back([&] {
    HttpConn conn(p.leader);
    HttpReply reply;
    for (uint64_t i = 0; i < p.trickle_posts; ++i) {
      const auto due = t0 + std::chrono::milliseconds(i * p.trickle_ms);
      std::this_thread::sleep_until(due);
      trickle_late.push_back(Since(due) * 1e3);
      const uint64_t begin = p.record_base + i * p.batch;
      conn.Request("POST", "/ingest", NdjsonBatch(p.seed, begin, p.batch),
                   &reply);
      // Open loop: latency counts from when the batch was due.
      trickle_lat.push_back(Since(due) * 1e3);
      if (!AcceptedAll(reply, p.batch)) {
        ++result.trickle_failed;
        error.Note("trickle POST " + std::to_string(reply.status));
      }
    }
  });
  for (size_t i = 0; i < reader_threads; ++i) threads[i].join();
  result.read_s = Since(t0);
  threads.back().join();

  std::vector<std::pair<double, uint64_t>> completions;
  for (const Sample& s : samples) {
    completions.insert(completions.end(), s.done.begin(), s.done.end());
    result.query_ms.insert(result.query_ms.end(), s.query.begin(),
                           s.query.end());
    result.release_ms.insert(result.release_ms.end(), s.release.begin(),
                             s.release.end());
    result.coarse_ms.insert(result.coarse_ms.end(), s.coarse.begin(),
                            s.coarse.end());
    result.dp_ms.insert(result.dp_ms.end(), s.dp.begin(), s.dp.end());
    result.requests += s.requests;
    result.failed += s.failed;
    result.response_bytes += s.response_bytes;
  }
  result.read_req_per_s = MedianChunkRate(std::move(completions), kReadChunks);
  result.trickle_posts = p.trickle_posts;
  result.trickle_p50_ms = Percentile(trickle_lat, 0.5);
  result.trickle_late_max_ms = Percentile(trickle_late, 1.0);
  result.error = error.Get();
  return result;
}

}  // namespace bench
