// Output checkers of the benchmark. Each checks the program's output
// against the benchmark's own inputs or against properties of the method
// (containment, k-anonymity, Lemma 1 nesting, DP consistency, replica
// identity); none compares with a stored copy of earlier output. Every
// checker has a self-test on damaged output (selftest.cc).
#ifndef PERFBENCH_LOADGEN_CHECKS_H_
#define PERFBENCH_LOADGEN_CHECKS_H_

#include <array>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "agrawal.h"

namespace bench {

// ---- batch_anonymize: the CLI's output CSV -------------------------------

struct BatchCheck {
  uint64_t rows = 0;          // input rows (one operation each)
  uint64_t failed = 0;        // rows failing any check below
  uint64_t not_contained = 0; // published box excludes the row's own values
  uint64_t small_group = 0;   // row's identical-box group has < k rows
  uint64_t missing = 0;       // input rows without an output row
  uint64_t wrong_sensitive = 0;
  double ncp = 0.0;           // average NCP of the published boxes
};

/// `out` is the CLI's output: a header line, then one "lo..hi" cell per
/// quasi-identifier and the sensitive code, one row per input row in input
/// order. Group sizes are taken over rows with byte-identical boxes, so a
/// group that sums to the input count is checked by `missing`.
BatchCheck CheckBatchOutput(const std::vector<Record>& input, std::istream& out,
                            size_t k);

// ---- releases served over HTTP --------------------------------------------

struct Box {
  std::array<double, kDim> lo{};
  std::array<double, kDim> hi{};
};

struct Partition {
  uint64_t count = 0;
  Box box;
  std::vector<uint64_t> rids;
};

struct Release {
  uint64_t epoch = 0;
  uint64_t records = 0;
  std::vector<Partition> partitions;
};

/// Parses a /release or /release/query body (with partitions). False on
/// malformed JSON.
bool ParseRelease(const std::string& body, Release* out);

/// Fast check of a full release body: sum of `count` equals `records` and
/// every count is >= max(k1, the body's k1). Returns "" or the violation.
std::string CheckFullBody(const std::string& body, uint64_t k1);

/// Summary body (?summary=1): "records" and "min_partition" fields.
bool ParseSummary(const std::string& body, uint64_t* records,
                  uint64_t* min_partition, uint64_t* epoch);

/// Checks of the restarted server's release against the records the client
/// had acknowledged. Each entry of `violations` is one failed operation.
struct ReleaseCheck {
  uint64_t records_uncovered = 0;  // acked records inside no box
  std::vector<std::string> violations;  // aggregate checks that failed
  double ncp = 0.0;
};

/// Number of aggregate checks CheckIngestRelease runs (each one operation):
/// sum of counts, min count, box capacity, Lemma 1 nesting, coarse min count.
constexpr uint64_t kIngestAggregateChecks = 5;

/// `base` is /release?rids=1, `coarse` /release/query?k1=<k1>&rids=1 at the
/// same epoch; `acked` the records whose POST was acknowledged.
ReleaseCheck CheckIngestRelease(const Release& base, const Release& coarse,
                                const std::vector<Record>& acked, size_t k,
                                size_t k1);

/// /release/dp body: non-negative integer cells, 2^height of them, and the
/// root ("records") equal to the sum of its leaves. "" or the violation.
std::string CheckDpBody(const std::string& body);

/// Replica identity: a follower's body must equal the leader's byte for
/// byte at the same publication point.
inline bool SameBody(const std::string& leader, const std::string& follower) {
  return leader == follower;
}

/// Average NCP of a release over the benchmark's domain.
double ReleaseNcp(const Release& release);

}  // namespace bench

#endif  // PERFBENCH_LOADGEN_CHECKS_H_
