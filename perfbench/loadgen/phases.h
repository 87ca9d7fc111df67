// The load phases of one benchmark round, driven over loopback HTTP. Used
// by kbench_load against `kanon_cli serve` processes, and by the traced
// run against the same stack in-process.
#ifndef PERFBENCH_LOADGEN_PHASES_H_
#define PERFBENCH_LOADGEN_PHASES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

/// NDJSON body of records [begin, begin + n) of `seed`'s stream.
std::string NdjsonBatch(uint64_t seed, uint64_t begin, uint64_t n);

/// Closed-loop writers POST batches of `batch` records until all `records`
/// are acknowledged; one closed-loop reader polls /release/query?summary=1
/// meanwhile, measuring how far the published release trails the acks.
struct IngestResult {
  uint64_t posts = 0;
  uint64_t failed_posts = 0;
  uint64_t failed_records = 0;  // records of POSTs not acknowledged in full
  uint64_t acked = 0;
  uint64_t bytes_sent = 0;
  uint64_t summary_reads = 0;
  uint64_t probe_errors = 0;  // summary reads that failed
  double elapsed_s = 0.0;
  double rec_per_s = 0.0;  // median over fortieths of the acked records
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double staleness_p50 = 0.0;  // records acked before a read - records seen
  std::string error;
};
IngestResult RunIngest(uint16_t port, uint64_t seed, uint64_t records,
                       uint64_t writers, uint64_t batch);

/// Polls /healthz until 200.
bool WaitHealthz(uint16_t port, double timeout_s);

/// Polls the summary until the published release holds `records`.
bool WaitRecords(uint16_t port, uint64_t records, double timeout_s);

/// Checks the base and coarse (k1) releases of one epoch against the first
/// `records` records of `seed`'s stream (see CheckIngestRelease).
struct VerifyResult {
  uint64_t checks = 0;         // aggregate checks run (one operation each)
  uint64_t failed_checks = 0;
  uint64_t uncovered = 0;      // acked records inside no published box
  std::vector<std::string> violations;
  double ncp = 0.0;
  uint64_t epoch = 0;
  size_t partitions = 0;
};
VerifyResult VerifyRelease(uint16_t port, uint64_t seed, uint64_t records,
                           uint64_t k, uint64_t k1);

/// Polls until the follower's /release equals the leader's byte for byte.
struct ReplicaResult {
  bool identical = false;
  size_t bytes = 0;
  int leader_status = 0;
  int follower_status = 0;
};
ReplicaResult WaitReplica(uint16_t leader, uint16_t follower, double timeout_s);

/// The read mix: `readers` closed-loop readers run `cycles` fixed cycles
/// each, alternating between leader and follower; one open-loop writer
/// POSTs `trickle_posts` batches to the leader, one every `trickle_ms`.
struct ReadParams {
  uint16_t leader = 0;
  uint16_t follower = 0;
  uint64_t seed = 0;
  uint64_t k = 10;
  uint64_t readers = 3;
  uint64_t cycles = 0;
  uint64_t record_base = 0;  // first stream index the trickle sends
  uint64_t batch = 100;
  uint64_t trickle_posts = 0;
  uint64_t trickle_ms = 40;
};
struct ReadResult {
  uint64_t requests = 0;
  uint64_t failed = 0;
  double read_s = 0.0;
  double read_req_per_s = 0.0;  // median over tenths of the requests
  std::vector<double> query_ms, release_ms, coarse_ms, dp_ms;
  uint64_t trickle_posts = 0;
  uint64_t trickle_failed = 0;
  double trickle_p50_ms = 0.0;       // from when each batch was due
  double trickle_late_max_ms = 0.0;  // how late the generator ran
  uint64_t identity_checked = 0;     // epochs seen from both servers
  uint64_t identity_mismatch = 0;
  uint64_t response_bytes = 0;
  std::string error;
};
ReadResult RunRead(const ReadParams& params);

/// Requests one reader sends in `cycles` cycles: 4 summaries and 2 DP reads
/// per cycle, and one full release body every second cycle.
inline uint64_t ReadRequestsPerReader(uint64_t cycles) {
  return cycles * 6 + cycles / 2;
}

}  // namespace bench

#endif  // PERFBENCH_LOADGEN_PHASES_H_
