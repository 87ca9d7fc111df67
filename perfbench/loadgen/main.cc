// kbench_load: the benchmark's load generator and checker. It includes no
// header of the program: it makes its own records, speaks HTTP/1.1 with
// its own client, and judges the program's outputs with its own checkers.
//
//   kbench_load gen-csv      --seed S --rows N --out FILE
//   kbench_load check-batch  --seed S --rows N --output FILE --k K
//   kbench_load ingest       --port P --seed S --records N --writers W
//                            --batch B
//   kbench_load wait-records --port P --records N --timeout-s T
//   kbench_load verify       --port P --seed S --records N --k K --k1 K1
//   kbench_load replica-wait --leader P --follower Q --timeout-s T
//   kbench_load read         --leader P --follower Q --seed S --k K
//                            --readers R --cycles C --record-base N
//                            --batch B --trickle-posts T --trickle-ms MS
//   kbench_load healthz      --port P --timeout-s T
//   kbench_load domain
//   kbench_load selftest
//
// Each subcommand prints one JSON object on stdout. Exit code 0 means the
// subcommand ran; its checks are reported in the JSON, not by exit code.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "agrawal.h"
#include "checks.h"
#include "phases.h"

namespace bench {
int RunSelfTest();
}

namespace {

using bench::Record;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) values_[argv[i]] = argv[i + 1];
  }
  uint64_t U(const char* key) const {
    return std::strtoull(S(key).c_str(), nullptr, 10);
  }
  std::string S(const char* key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing %s\n", key);
      std::exit(2);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

using ull = unsigned long long;

int GenCsv(const Args& a) {
  const uint64_t seed = a.U("--seed");
  const uint64_t rows = a.U("--rows");
  std::FILE* f = std::fopen(a.S("--out").c_str(), "wb");
  if (f == nullptr) return 1;
  std::string buf;
  uint64_t bytes = 0;
  for (uint64_t i = 0; i < rows; ++i) {
    bench::AppendCsv(bench::MakeRecord(seed, i), &buf);
    buf += '\n';
    if (buf.size() > (1u << 20) || i + 1 == rows) {
      bytes += std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  }
  const bool ok = std::fclose(f) == 0;
  std::printf("{\"rows\":%llu,\"bytes\":%llu}\n", static_cast<ull>(rows),
              static_cast<ull>(bytes));
  return ok ? 0 : 1;
}

int CheckBatch(const Args& a) {
  const uint64_t rows = a.U("--rows");
  std::vector<Record> input(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    input[i] = bench::MakeRecord(a.U("--seed"), i);
  }
  std::ifstream out(a.S("--output"));
  const bench::BatchCheck c = bench::CheckBatchOutput(input, out, a.U("--k"));
  std::printf(
      "{\"rows\":%llu,\"failed\":%llu,\"not_contained\":%llu,"
      "\"small_group\":%llu,\"missing\":%llu,\"wrong_sensitive\":%llu,"
      "\"ncp\":%.9g}\n",
      static_cast<ull>(c.rows), static_cast<ull>(c.failed),
      static_cast<ull>(c.not_contained), static_cast<ull>(c.small_group),
      static_cast<ull>(c.missing), static_cast<ull>(c.wrong_sensitive), c.ncp);
  return 0;
}

int Ingest(const Args& a) {
  const bench::IngestResult r = bench::RunIngest(
      static_cast<uint16_t>(a.U("--port")), a.U("--seed"), a.U("--records"),
      a.U("--writers"), a.U("--batch"));
  std::printf(
      "{\"posts\":%llu,\"failed_posts\":%llu,\"failed_records\":%llu,"
      "\"acked\":%llu,\"elapsed_s\":%.6f,\"rec_per_s\":%.3f,"
      "\"p50_ms\":%.6f,\"p99_ms\":%.6f,\"staleness_p50\":%.1f,"
      "\"summary_reads\":%llu,\"probe_errors\":%llu,\"bytes_sent\":%llu,"
      "\"error\":%s}\n",
      static_cast<ull>(r.posts), static_cast<ull>(r.failed_posts),
      static_cast<ull>(r.failed_records), static_cast<ull>(r.acked),
      r.elapsed_s, r.rec_per_s, r.p50_ms, r.p99_ms, r.staleness_p50,
      static_cast<ull>(r.summary_reads), static_cast<ull>(r.probe_errors),
      static_cast<ull>(r.bytes_sent), JsonStr(r.error).c_str());
  return 0;
}

int Verify(const Args& a) {
  const bench::VerifyResult r = bench::VerifyRelease(
      static_cast<uint16_t>(a.U("--port")), a.U("--seed"), a.U("--records"),
      a.U("--k"), a.U("--k1"));
  std::string violations = "[";
  for (size_t i = 0; i < r.violations.size(); ++i) {
    if (i > 0) violations += ',';
    violations += JsonStr(r.violations[i]);
  }
  violations += "]";
  std::printf(
      "{\"uncovered\":%llu,\"failed_checks\":%llu,\"checks\":%llu,"
      "\"violations\":%s,\"ncp\":%.9g,\"epoch\":%llu,\"partitions\":%zu}\n",
      static_cast<ull>(r.uncovered), static_cast<ull>(r.failed_checks),
      static_cast<ull>(r.checks), violations.c_str(), r.ncp,
      static_cast<ull>(r.epoch), r.partitions);
  return 0;
}

int ReplicaWait(const Args& a) {
  const bench::ReplicaResult r = bench::WaitReplica(
      static_cast<uint16_t>(a.U("--leader")),
      static_cast<uint16_t>(a.U("--follower")),
      static_cast<double>(a.U("--timeout-s")));
  std::printf("{\"identical\":%s,\"bytes\":%zu,\"leader_status\":%d,"
              "\"follower_status\":%d}\n",
              r.identical ? "true" : "false", r.bytes, r.leader_status,
              r.follower_status);
  return 0;
}

int Read(const Args& a) {
  bench::ReadParams p;
  p.leader = static_cast<uint16_t>(a.U("--leader"));
  p.follower = static_cast<uint16_t>(a.U("--follower"));
  p.seed = a.U("--seed");
  p.k = a.U("--k");
  p.readers = a.U("--readers");
  p.cycles = a.U("--cycles");
  p.record_base = a.U("--record-base");
  p.batch = a.U("--batch");
  p.trickle_posts = a.U("--trickle-posts");
  p.trickle_ms = a.U("--trickle-ms");
  const bench::ReadResult r = bench::RunRead(p);
  using bench::Percentile;
  std::printf(
      "{\"requests\":%llu,\"expected_requests\":%llu,\"failed\":%llu,"
      "\"read_s\":%.6f,\"read_req_per_s\":%.4f,\"query_p50_ms\":%.6f,"
      "\"query_p99_ms\":%.6f,\"query_n\":%zu,\"release_p50_ms\":%.6f,"
      "\"release_n\":%zu,\"coarse_p50_ms\":%.6f,\"coarse_n\":%zu,"
      "\"dp_p50_ms\":%.6f,\"dp_n\":%zu,\"trickle_posts\":%llu,"
      "\"trickle_failed\":%llu,\"trickle_p50_ms\":%.6f,"
      "\"trickle_late_max_ms\":%.6f,\"identity_checked\":%llu,"
      "\"identity_mismatch\":%llu,\"response_bytes\":%llu,\"error\":%s}\n",
      static_cast<ull>(r.requests),
      static_cast<ull>(p.readers * bench::ReadRequestsPerReader(p.cycles)),
      static_cast<ull>(r.failed), r.read_s, r.read_req_per_s,
      Percentile(r.query_ms, 0.5), Percentile(r.query_ms, 0.99),
      r.query_ms.size(), Percentile(r.release_ms, 0.5), r.release_ms.size(),
      Percentile(r.coarse_ms, 0.5), r.coarse_ms.size(),
      Percentile(r.dp_ms, 0.5), r.dp_ms.size(),
      static_cast<ull>(r.trickle_posts), static_cast<ull>(r.trickle_failed),
      r.trickle_p50_ms, r.trickle_late_max_ms,
      static_cast<ull>(r.identity_checked),
      static_cast<ull>(r.identity_mismatch),
      static_cast<ull>(r.response_bytes), JsonStr(r.error).c_str());
  return 0;
}

int Ok(bool ok) {
  std::printf("{\"ok\":%s}\n", ok ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: kbench_load SUBCOMMAND [--flag value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args a(argc, argv);
  if (cmd == "gen-csv") return GenCsv(a);
  if (cmd == "check-batch") return CheckBatch(a);
  if (cmd == "ingest") return Ingest(a);
  if (cmd == "verify") return Verify(a);
  if (cmd == "replica-wait") return ReplicaWait(a);
  if (cmd == "read") return Read(a);
  if (cmd == "healthz") {
    return Ok(bench::WaitHealthz(static_cast<uint16_t>(a.U("--port")),
                                 static_cast<double>(a.U("--timeout-s"))));
  }
  if (cmd == "wait-records") {
    return Ok(bench::WaitRecords(static_cast<uint16_t>(a.U("--port")),
                                 a.U("--records"),
                                 static_cast<double>(a.U("--timeout-s"))));
  }
  if (cmd == "domain") {
    std::printf("{\"domain\":\"%s\"}\n", bench::DomainFlag().c_str());
    return 0;
  }
  if (cmd == "selftest") return bench::RunSelfTest();
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
