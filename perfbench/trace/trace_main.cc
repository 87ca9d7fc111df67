// kbench_trace: the benchmark's traced run. It replays one round of a
// workload in process, with spans around the calls into each layer, and
// prints the per-layer metrics as one JSON line.
//
// The stack is the one `kanon_cli serve` runs (ShardedAnonymizationService
// + AnonHttpFrontend + HttpServer, a ReplicatedFollower for the replica),
// with each handler wrapped in a span; the load is the benchmark's own
// (perfbench/loadgen), whose requests carry their client span id so server
// spans name their parent. The batch phase replays the CLI's steps through
// the same functions on the same generated table. The ingest stream is then
// replayed through the index, durability and DP entry points on their own.
//
// Built apart from the end-to-end command: an internal API change can break
// this program, never the end-to-end numbers.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "agrawal.h"
#include "checks.h"
#include "dp/dp_hierarchy.h"
#include "dp/dp_release.h"
#include "dp/dp_rng.h"
#include "http_client.h"
#include "kanon/kanon.h"
#include "net/anon_http.h"
#include "net/http_server.h"
#include "net/replication.h"
#include "phases.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- spans ------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t bytes = 0;  // response body bytes (request spans)
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// All spans of the run, kept in memory and written out at the end. Client
// request spans come from the load generator's observer hook; server spans
// from the wrapped handlers; stage spans from ScopedSpan.
class Tracer : public bench::RequestObserver {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1); }

  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  uint64_t Begin(const std::string& method, const std::string& target) override {
    const uint64_t id = NewId();
    Span s;
    s.id = id;
    s.name = "client " + method + " " + target.substr(0, target.find('&'));
    s.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    open_[id] = std::move(s);
    return id;
  }
  void End(uint64_t id, int, size_t bytes) override {
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_.find(id);
    if (it == open_.end()) return;
    it->second.end_ns = end;
    it->second.bytes = bytes;
    spans_.push_back(std::move(it->second));
    open_.erase(it);
  }

  std::vector<Span> Spans() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<uint64_t, Span> open_;
};

Tracer g_tracer;
thread_local uint64_t t_current_span = 0;

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, uint64_t parent = t_current_span) {
    span_.id = g_tracer.NewId();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.start_ns = NowNs();
    saved_ = t_current_span;
    t_current_span = span_.id;
  }
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    t_current_span = saved_;
    g_tracer.Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_bytes(size_t bytes) { span_.bytes = bytes; }
  double seconds_so_far() const {
    return static_cast<double>(NowNs() - span_.start_ns) / 1e9;
  }

 private:
  Span span_;
  uint64_t saved_ = 0;
};

// Request kind by target, shared by client and server spans.
std::string Kind(const std::string& method, const std::string& target) {
  if (method == "POST" && target.rfind("/ingest", 0) == 0) return "ingest";
  if (target.rfind("/release/dp", 0) == 0) return "dp";
  if (target.find("summary=1") != std::string::npos) return "query";
  if (target == "/release") return "release";
  return "other";
}

// The handler every in-process server runs: the program's handler inside a
// span whose parent is the client span named by the request header.
template <typename Frontend>
kanon::net::HttpHandler Traced(Frontend* frontend) {
  return [frontend](const kanon::net::HttpRequest& request) {
    uint64_t parent = 0;
    if (const std::string* h = request.FindHeader("x-bench-trace")) {
      parent = std::strtoull(h->c_str(), nullptr, 10);
    }
    ScopedSpan span("server " + Kind(request.method, request.target), parent);
    kanon::net::HttpResponse response = frontend->Handle(request);
    span.set_bytes(response.body.size());
    return response;
  };
}

// ---- helpers ---------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) values_[argv[i]] = argv[i + 1];
  }
  std::string S(const char* key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing %s\n", key);
      std::exit(2);
    }
    return it->second;
  }
  uint64_t U(const char* key) const {
    return std::strtoull(S(key).c_str(), nullptr, 10);
  }

 private:
  std::map<std::string, std::string> values_;
};

template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) { return bench::Percentile(std::move(v), 0.5); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// Value of an unlabeled Prometheus sample, 0 when absent.
double PromValue(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t at = text.find(needle);
  return at == std::string::npos
             ? 0.0
             : std::strtod(text.c_str() + at + needle.size(), nullptr);
}

std::string Fetch(uint16_t port, const std::string& target) {
  bench::HttpConn conn(port);
  bench::HttpReply reply;
  conn.Get(target, &reply);
  return reply.body;
}

kanon::Domain BenchDomain() {
  kanon::Domain d;
  for (const auto& [lo, hi] : bench::Domain()) {
    d.lo.push_back(lo);
    d.hi.push_back(hi);
  }
  return d;
}

// A leader as `kanon_cli serve --listen --wal-dir --k --dp-key` builds it.
struct Leader {
  std::unique_ptr<kanon::ShardedAnonymizationService> service;
  std::unique_ptr<kanon::net::AnonHttpFrontend> frontend;
  std::unique_ptr<kanon::net::HttpServer> server;

  bool Start(const std::string& wal, size_t k, const std::string& dp_key) {
    kanon::ShardedServiceOptions options;
    options.service.anonymizer.base_k = k;
    options.service.durability.wal_dir = wal;
    auto created = kanon::ShardedAnonymizationService::Create(
        bench::kDim, BenchDomain(), options);
    if (!created.ok()) return false;
    service = std::move(*created);
    kanon::net::AnonHttpOptions fo;
    fo.dp_key = dp_key;
    frontend =
        std::make_unique<kanon::net::AnonHttpFrontend>(service.get(), fo);
    server = std::make_unique<kanon::net::HttpServer>(
        kanon::net::HttpServerOptions{}, Traced(frontend.get()));
    return server->Start().ok();
  }
  uint16_t port() const { return server->bound_port(); }
  void Stop() {
    server->Shutdown();
    service->Stop();
  }
  // Destroys the stack, the server before the service it calls into.
  void Reset() {
    server.reset();
    frontend.reset();
    service.reset();
  }
};

// A replica as `kanon_cli serve --follow` builds it.
struct Follower {
  std::unique_ptr<kanon::net::ReplicatedFollower> replica;
  std::unique_ptr<kanon::net::FollowerFrontend> frontend;
  std::unique_ptr<kanon::net::HttpServer> server;

  bool Start(const kanon::net::FollowerOptions& options) {
    replica = std::make_unique<kanon::net::ReplicatedFollower>(BenchDomain(),
                                                               options);
    frontend = std::make_unique<kanon::net::FollowerFrontend>(replica.get());
    server = std::make_unique<kanon::net::HttpServer>(
        kanon::net::HttpServerOptions{}, Traced(frontend.get()));
    if (!server->Start().ok()) return false;
    replica->Start();
    return true;
  }
  uint16_t port() const { return server->bound_port(); }
  void Stop() {
    if (server == nullptr) return;
    server->Shutdown();
    replica->Stop();
    server.reset();
    frontend.reset();
    replica.reset();
  }
};

volatile double g_sink = 0.0;  // keeps timed results observable

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string workdir = args.S("--workdir");
  const uint64_t seed = args.U("--seed");
  const uint64_t batch_seed = args.U("--batch-seed");
  const uint64_t batch_rows = args.U("--batch-rows");
  const uint64_t batch_runs = args.U("--batch-runs");
  const uint64_t repeats = args.U("--repeats");
  const uint64_t n_ingest = args.U("--ingest-records");
  const uint64_t k = args.U("--k");
  const uint64_t coarse_k = 8 * k;
  const std::string dp_key = "perfbench";
  const std::string wal = workdir + "/wal";
  std::map<std::string, double> m;  // per-layer metrics
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bench::SetRequestObserver(&g_tracer);

  // ---- durable ingest through the in-process stack ------------------------
  Leader leader;
  if (!leader.Start(wal, k, dp_key)) {
    std::fprintf(stderr, "leader failed to start\n");
    return 1;
  }
  std::atomic<bool> ingesting{true};
  double publish_ms_max = 0.0;
  std::thread monitor([&] {
    // Publication times are only exported as "last"; sample them.
    uint64_t seen = 0;
    while (ingesting.load()) {
      const kanon::ServiceStats s = leader.service->Stats().total;
      if (s.snapshots != seen) {
        seen = s.snapshots;
        publish_ms_max = std::max(publish_ms_max, s.last_snapshot_build_ms);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  bench::IngestResult ing;
  {
    ScopedSpan span("phase ingest");
    ing = bench::RunIngest(leader.port(), seed, n_ingest, 3, 100);
  }
  attempted += n_ingest;
  failed += ing.failed_records;
  if (ing.probe_errors > 0) problems.push_back("summary probes failed");
  m["trace.ingest_rec_per_s"] = ing.rec_per_s;
  double drain_ms = 0.0;
  {
    ScopedSpan span("phase drain");
    drain_ms = TimeMs([&] { leader.Stop(); });
  }
  ingesting.store(false);
  monitor.join();
  m["trace.drain_s"] = drain_ms / 1e3;
  {
    const kanon::ServiceStats s = leader.service->Stats().total;
    m["service.queue_wait_ms"] = s.queue_wait_ms;
    m["service.apply_ms"] = s.apply_ms;
    m["service.batches"] = static_cast<double>(s.batches);
    m["service.publishes"] = static_cast<double>(s.snapshots);
    m["service.publish_ms_total"] = s.snapshot_build_ms_total;
    m["service.publish_ms_max"] =
        std::max(publish_ms_max, s.last_snapshot_build_ms);
    m["service.fragments_built"] = static_cast<double>(s.fragments_built);
    const double frags =
        static_cast<double>(s.fragments_built + s.fragments_reused);
    m["service.fragment_reuse_ratio"] =
        frags == 0 ? 0.0 : static_cast<double>(s.fragments_reused) / frags;
    m["lsm.merges"] = static_cast<double>(s.merges);
    m["lsm.merge_ms_total"] = s.merge_ms_total;
    m["durability.wal_syncs"] = static_cast<double>(s.wal_syncs);
    m["durability.wal_bytes_per_record"] =
        s.wal_appended == 0 ? 0.0
                            : static_cast<double>(s.wal_bytes) /
                                  static_cast<double>(s.wal_appended);
    m["durability.checkpoints"] = static_cast<double>(s.checkpoints);
  }
  leader.Reset();
  m["durability.disk_bytes_per_input_byte"] =
      static_cast<double>(DirBytes(wal)) /
      static_cast<double>(std::max<uint64_t>(1, ing.bytes_sent));
  {
    // Recovery alone, on the drained directory (read-only: the drain left
    // no torn tail to truncate).
    ScopedSpan span("durability.RecoverInto");
    kanon::RTreeAnonymizerOptions ro;
    ro.base_k = k;
    const kanon::Domain domain = BenchDomain();
    kanon::IncrementalAnonymizer fresh(bench::kDim, ro, &domain);
    kanon::RecoveryOptions options;
    options.dir = kanon::ShardWalDir(wal, 0);
    const auto t0 = Clock::now();
    if (!kanon::RecoverInto(options, &fresh).ok()) {
      problems.push_back("RecoverInto failed on the drained directory");
    }
    m["durability.recover_s"] =
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // ---- restart, verify, replica --------------------------------------------
  const auto restart_t0 = Clock::now();
  if (!leader.Start(wal, k, dp_key) ||
      !bench::WaitRecords(leader.port(), ing.acked, 60)) {
    problems.push_back("restarted leader did not cover the acked records");
  }
  m["trace.restart_s"] =
      std::chrono::duration<double>(Clock::now() - restart_t0).count();
  const bench::VerifyResult ver =
      bench::VerifyRelease(leader.port(), seed, n_ingest, k, coarse_k);
  attempted += ver.checks;
  failed += ver.failed_checks + ver.uncovered;

  // Bootstraps repeat like the untraced round's; the last replica serves
  // the read mix.
  kanon::net::FollowerOptions fopts;
  fopts.leader_port = leader.port();
  fopts.core.anonymizer.base_k = k;
  fopts.dp_key = dp_key;
  fopts.scratch_dir = workdir + "/follower";
  Follower follower;
  std::vector<double> boots;
  for (uint64_t i = 0; i < repeats; ++i) {
    follower.Stop();
    const auto t0 = Clock::now();
    if (!follower.Start(fopts)) {
      std::fprintf(stderr, "follower failed to start\n");
      return 1;
    }
    const bench::ReplicaResult rep =
        bench::WaitReplica(leader.port(), follower.port(), 60);
    boots.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    attempted += 1;
    failed += rep.identical ? 0 : 1;
  }
  m["trace.replica_bootstrap_s"] = Median(boots);

  // ---- read mix --------------------------------------------------------------
  bench::ReadParams rp;
  rp.leader = leader.port();
  rp.follower = follower.port();
  rp.seed = seed;
  rp.k = k;
  rp.cycles = args.U("--read-cycles");
  rp.record_base = n_ingest;
  rp.trickle_posts = args.U("--trickle-posts");
  bench::ReadResult rd;
  {
    ScopedSpan span("phase read");
    rd = bench::RunRead(rp);
  }
  attempted += rd.requests + rd.trickle_posts;
  failed += rd.failed + rd.trickle_failed;
  if (rd.identity_mismatch > 0) problems.push_back("replica bodies differ");
  m["trace.read_req_per_s"] = rd.read_req_per_s;
  m["repl.bytes"] = static_cast<double>(follower.replica->bytes_total());
  m["repl.batches"] = static_cast<double>(follower.replica->batches());
  {
    const auto manifest = kanon::LoadManifest(kanon::ShardWalDir(wal, 0));
    m["repl.checkpoint_bytes"] =
        manifest.ok() ? static_cast<double>(manifest->snapshot.byte_size) : 0;
  }
  const double dp_hits =
      PromValue(Fetch(leader.port(), "/metrics"), "kanon_dp_cache_hits_total") +
      PromValue(Fetch(follower.port(), "/metrics"),
                "kanon_dp_cache_hits_total");
  m["dp.memo_hit_ratio"] =
      rd.dp_ms.empty() ? 0.0 : dp_hits / static_cast<double>(rd.dp_ms.size());
  follower.Stop();

  // ---- read-path layers on the leader's current publication ---------------
  {
    const auto stitched = leader.service->CurrentStitched();
    const kanon::Domain& domain = stitched->domain();
    std::vector<double> base_ms, coarse_ms, ncp_ms, render_ms, build_ms;
    for (int i = 0; i < 5; ++i) {
      kanon::PartitionSet release;
      base_ms.push_back(TimeMs([&] { release = stitched->Release(k); }));
      coarse_ms.push_back(TimeMs([&] { (void)stitched->Release(coarse_k); }));
      ncp_ms.push_back(
          TimeMs([&] { (void)kanon::AverageBoxNcp(release, domain); }));
      render_ms.push_back(
          TimeMs([&] { (void)kanon::net::PartitionsJson(release, false); }));
    }
    m["anon.release_base_ms"] = Median(base_ms);
    m["anon.release_coarse_ms"] = Median(coarse_ms);
    m["service.ncp_summary_ms"] = Median(ncp_ms);
    m["net.render_ms"] = Median(render_ms);

    size_t height = 0;
    const auto cells = stitched->SummedDpCells(&height);
    const kanon::DpNoiseKey key = kanon::DeriveDpNoiseKey(dp_key);
    std::shared_ptr<const kanon::DpRelease> dp;
    for (int i = 0; i < 3 && cells.ok(); ++i) {
      build_ms.push_back(TimeMs([&] {
        dp = kanon::BuildDpRelease(**cells, domain, height, 1.0, key);
      }));
    }
    m["dp.build_ms"] = Median(build_ms);
    double sink = 0.0;
    const int queries = 2000;
    const double query_ms = TimeMs([&] {
      for (int q = 0; q < queries && dp != nullptr; ++q) {
        std::vector<double> lo(bench::kDim), hi(bench::kDim);
        for (size_t d = 0; d < bench::kDim; ++d) {
          const double span = domain.hi[d] - domain.lo[d];
          const double u = static_cast<double>(
              bench::Mix(seed ^ (static_cast<uint64_t>(q) << 8) ^ d) % 1000) /
              1000.0;
          lo[d] = domain.lo[d] + u * 0.6 * span;
          hi[d] = lo[d] + 0.4 * span;
        }
        sink += kanon::DpRangeCount(dp->counts, dp->grid,
                                    kanon::Mbr::FromBounds(lo, hi));
      }
    });
    g_sink = sink;
    m["dp.query_us"] = query_ms * 1e3 / queries;
  }
  leader.Stop();

  // ---- batch: the CLI's steps on the same generated table ----------------
  // Runs last, like the batch phase of the untraced round, and as many
  // times; the stage metrics are those of the last run. A serve workload
  // runs no CLI, so its traced run replays the table once without counting
  // its rows as operations.
  auto replay_batch = [&](bool counted) {
    const std::string csv_in = workdir + "/in.csv";
    const std::string csv_out = workdir + "/out.csv";
    std::vector<bench::Record> table(batch_rows);
    {
      std::ofstream out(csv_in);
      std::string line;
      for (uint64_t i = 0; i < batch_rows; ++i) {
        table[i] = bench::MakeRecord(batch_seed, i);
        line.clear();
        bench::AppendCsv(table[i], &line);
        out << line << '\n';
      }
    }
    double traced_ncp = 0.0;
    {
      ScopedSpan batch("batch");
      double stages_s = 0.0;
      auto stage = [&](const char* name, auto&& fn) {
        ScopedSpan span(name);
        fn();
        const double s = span.seconds_so_far();
        stages_s += s;
        return s;
      };
      std::optional<kanon::Dataset> ds;
      m["data.csv_read_s"] = stage("data.ReadNumericCsv", [&] {
        ds = *kanon::ReadNumericCsv(csv_in, kanon::Schema::Numeric(bench::kDim),
                                    kanon::CsvOptions{});
      });
      kanon::RTreeAnonymizerOptions ro;
      ro.base_k = k;
      const kanon::RTreeAnonymizer anonymizer(ro);
      std::optional<kanon::RTreeAnonymizer::BuildResult> built;
      m["index.bulk_load_s"] = stage("index.BuildLeaves", [&] {
        built = *anonymizer.BuildLeaves(*ds);
      });
      m["storage.page_reads"] = static_cast<double>(built->io.reads);
      m["storage.page_writes"] = static_cast<double>(built->io.writes);
      m["storage.pool_hit_ratio"] = built->cache.hit_rate();
      kanon::PartitionSet ps;
      m["anon.leaf_scan_s"] = stage("anon.Granularize", [&] {
        ps = anonymizer.Granularize(*ds, built->leaves, k);
      });
      m["anon.verify_s"] = stage("anon.Check", [&] {
        if (!ps.CheckCovers(*ds).ok() ||
            !ps.CheckKAnonymous(std::min<size_t>(k, ds->num_records())).ok()) {
          problems.push_back("batch partitions fail the program's own checks");
        }
      });
      std::optional<kanon::AnonymizedTable> anon_table;
      m["anon.table_s"] = stage("anon.FromPartitions", [&] {
        anon_table = *kanon::AnonymizedTable::FromPartitions(*ds, std::move(ps));
      });
      m["anon.write_csv_s"] = stage("anon.WriteCsv", [&] {
        if (!anon_table->WriteCsv(csv_out, ds->schema()).ok()) {
          problems.push_back("WriteCsv failed");
        }
      });
      const double wall = batch.seconds_so_far();
      m["trace.batch_s"] = wall;
      m["trace.batch_span_coverage"] = stages_s / wall;
      traced_ncp =
          kanon::ComputeQuality(*ds, anon_table->partitions()).average_ncp;
    }
    m["anon.output_bytes"] = static_cast<double>(fs::file_size(csv_out));
    {
      std::ifstream out(csv_out);
      const bench::BatchCheck c = bench::CheckBatchOutput(table, out, k);
      if (counted) {
        attempted += c.rows;
        failed += c.failed;
      }
      // The printed boxes are rounded, so the two agree only closely.
      if (std::abs(c.ncp - traced_ncp) > 0.005 * traced_ncp) {
        problems.push_back("benchmark NCP " + std::to_string(c.ncp) +
                           " differs from ComputeQuality " +
                           std::to_string(traced_ncp));
      }
      m["trace.batch_ncp"] = c.ncp;
    }
    table.clear();
    table.shrink_to_fit();
    fs::remove(csv_out);

  };
  const uint64_t replays = std::max<uint64_t>(1, batch_runs);
  for (uint64_t run = 0; run < replays; ++run) replay_batch(run < batch_runs);

  // ---- replays of the ingest stream through single layers -------------------
  {
    std::vector<bench::Record> stream(n_ingest);
    std::vector<double> flat;
    flat.reserve(n_ingest * bench::kDim);
    for (uint64_t i = 0; i < n_ingest; ++i) {
      stream[i] = bench::MakeRecord(seed, i);
      flat.insert(flat.end(), stream[i].v.begin(), stream[i].v.end());
    }
    {
      std::vector<std::string> lines(n_ingest);
      for (uint64_t i = 0; i < n_ingest; ++i) {
        bench::AppendCsv(stream[i], &lines[i]);
      }
      std::vector<double> point;
      int32_t sensitive = 0;
      ScopedSpan span("net.ParseRecordLine");
      const double ms = TimeMs([&] {
        for (const std::string& line : lines) {
          (void)kanon::net::ParseRecordLine(line, bench::kDim, &point,
                                            &sensitive);
        }
      });
      m["net.record_parse_us"] = ms * 1e3 / static_cast<double>(n_ingest);
    }
    kanon::RTreeAnonymizerOptions ro;
    ro.base_k = k;
    const kanon::Domain domain = BenchDomain();
    kanon::IncrementalAnonymizer tree(bench::kDim, ro, &domain);
    const std::string replay_dir = workdir + "/replay";
    kanon::WalOptions wo;
    wo.fsync_every = 0;  // syncs are issued (and timed) below
    auto wal_writer = kanon::WalWriter::Open(replay_dir, bench::kDim, 1, wo);
    if (!wal_writer.ok()) {
      std::fprintf(stderr, "WalWriter::Open failed\n");
      return 1;
    }
    kanon::Checkpointer checkpointer(replay_dir);
    const size_t fsync_every = kanon::WalOptions{}.fsync_every;
    const uint64_t checkpoint_every =
        kanon::DurabilityOptions{}.checkpoint_every;
    double insert_ms = 0.0, append_ms = 0.0;
    std::vector<double> sync_ms, checkpoint_ms;
    {
      ScopedSpan span("replay index+durability");
      for (uint64_t i = 0; i < n_ingest; ++i) {
        const auto& rec = stream[i];
        append_ms += TimeMs([&] {
          (void)(*wal_writer)->Append(i + 1, rec.v, rec.sensitive);
        });
        if ((i + 1) % fsync_every == 0) {
          sync_ms.push_back(TimeMs([&] { (void)(*wal_writer)->Sync(); }));
        }
        insert_ms += TimeMs([&] { tree.Insert(rec.v, i, rec.sensitive); });
        if ((i + 1) % checkpoint_every == 0) {
          checkpoint_ms.push_back(TimeMs(
              [&] { (void)checkpointer.Checkpoint(tree.tree(), i + 1); }));
        }
      }
    }
    m["index.insert_us"] = insert_ms * 1e3 / static_cast<double>(n_ingest);
    m["durability.wal_append_us"] =
        append_ms * 1e3 / static_cast<double>(n_ingest);
    m["durability.wal_sync_ms"] = Median(sync_ms);
    m["durability.checkpoint_ms"] = Median(checkpoint_ms);
    kanon::DpGrid grid(domain, kanon::ServiceOptions{}.dp_height);
    std::vector<uint64_t> cells(grid.num_leaves(), 0);
    m["dp.cell_count_ms"] = TimeMs([&] {
      kanon::AccumulateCells(grid, flat.data(), n_ingest, &cells);
    });
  }

  // ---- request spans: handler and transport time per kind -----------------
  // Only requests of the ingest and read phases count, not the set-up and
  // convergence polls between them.
  const std::vector<Span> spans = g_tracer.Spans();
  {
    std::unordered_map<uint64_t, const Span*> by_id;
    std::vector<const Span*> phases;
    for (const Span& s : spans) {
      by_id[s.id] = &s;
      if (s.name == "phase ingest" || s.name == "phase read") {
        phases.push_back(&s);
      }
    }
    auto in_phase = [&](const Span& s) {
      for (const Span* p : phases) {
        if (s.start_ns >= p->start_ns && s.end_ns <= p->end_ns) return true;
      }
      return false;
    };
    std::map<std::string, std::vector<double>> handler, transport, bytes;
    for (const Span& s : spans) {
      if (s.name.rfind("server ", 0) != 0 || !in_phase(s)) continue;
      const std::string kind = s.name.substr(7);
      handler[kind].push_back(s.ms());
      bytes[kind].push_back(static_cast<double>(s.bytes));
      auto it = by_id.find(s.parent);
      if (it != by_id.end()) transport[kind].push_back(it->second->ms() - s.ms());
    }
    m["net.ingest_handler_ms"] = Median(handler["ingest"]);
    m["net.transport_ms.ingest"] = Median(transport["ingest"]);
    m["net.handler_ms.release"] = Median(handler["release"]);
    m["net.handler_ms.query"] = Median(handler["query"]);
    m["net.handler_ms.dp"] = Median(handler["dp"]);
    m["net.transport_ms.release"] = Median(transport["release"]);
    m["net.response_bytes.release"] = Median(bytes["release"]);
  }
  m["trace.spans"] = static_cast<double>(spans.size());
  {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["proc.cpu_s"] = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  }

  // Spans are kept in memory until here, then written out once.
  if (std::FILE* f = std::fopen(args.S("--spans-out").c_str(), "w")) {
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}%s\n",
                   static_cast<unsigned long long>(spans[i].id),
                   static_cast<unsigned long long>(spans[i].parent),
                   spans[i].name.c_str(), static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns),
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

  for (const std::string& p : problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  std::string metrics;
  for (const auto& [name, value] : m) {
    if (!metrics.empty()) metrics += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    metrics += "\"" + name + "\":" + buf;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"values\":{%s}}\n",
              problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
