// Self-tests of the checkers: each checker must pass a correct output and
// fail the same output damaged on purpose. A check that cannot fail shows
// nothing. Run with `kbench_load selftest`.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "agrawal.h"
#include "checks.h"

namespace bench {

namespace {

int g_failures = 0;
int g_cases = 0;

void Expect(bool condition, const char* name) {
  ++g_cases;
  if (!condition) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", name);
  }
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Box BoxOf(const std::vector<Record>& records, const std::vector<size_t>& ids) {
  Box b;
  b.lo.fill(1e300);
  b.hi.fill(-1e300);
  for (const size_t i : ids) {
    for (size_t d = 0; d < kDim; ++d) {
      b.lo[d] = std::min(b.lo[d], records[i].v[d]);
      b.hi[d] = std::max(b.hi[d], records[i].v[d]);
    }
  }
  return b;
}

// Groups of `k` consecutive records in salary order.
std::vector<std::vector<size_t>> Groups(const std::vector<Record>& records,
                                        size_t k) {
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return records[a].v[0] < records[b].v[0];
  });
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < order.size(); i += k) {
    groups.emplace_back(order.begin() + i,
                        order.begin() + std::min(order.size(), i + k));
  }
  return groups;
}

std::string CsvCell(const Box& b, size_t d) {
  return Fmt(b.lo[d]) + ".." + Fmt(b.hi[d]) + ",";
}

// The CLI's output format: header, then one row per record in input order.
std::string BatchCsv(const std::vector<Record>& records,
                     const std::vector<Box>& row_box, size_t rows) {
  std::string out = "a0,a1,a2,a3,a4,a5,a6,a7,a8,s\n";
  for (size_t r = 0; r < rows; ++r) {
    for (size_t d = 0; d < kDim; ++d) out += CsvCell(row_box[r], d);
    out += std::to_string(records[r].sensitive) + "\n";
  }
  return out;
}

void BatchCases() {
  const size_t k = 5;
  std::vector<Record> records;
  for (uint64_t i = 0; i < 40; ++i) records.push_back(MakeRecord(7, i));
  const auto groups = Groups(records, k);
  std::vector<Box> row_box(records.size());
  for (const auto& g : groups) {
    const Box b = BoxOf(records, g);
    for (const size_t i : g) row_box[i] = b;
  }
  auto check = [&](const std::vector<Box>& boxes, size_t rows) {
    std::istringstream in(BatchCsv(records, boxes, rows));
    return CheckBatchOutput(records, in, k);
  };
  const BatchCheck good = check(row_box, records.size());
  Expect(good.failed == 0, "batch: correct output passes");

  // A box shrunk (for its whole group) so that it excludes a record.
  std::vector<Box> shrunk = row_box;
  const size_t victim = groups[2].back();  // the group's largest salary
  for (const size_t i : groups[2]) {
    shrunk[i].hi[0] = records[victim].v[0] - 0.01;
  }
  const BatchCheck c1 = check(shrunk, records.size());
  Expect(c1.not_contained >= 1 && c1.failed >= 1,
         "batch: shrunk box excluding a record fails");

  // A group of k-1: one row of a group gets a box of its own.
  std::vector<Box> split = row_box;
  split[groups[1].front()].hi[3] += 1.0;
  const BatchCheck c2 = check(split, records.size());
  Expect(c2.small_group >= k - 1, "batch: a group of k-1 fails");

  // A dropped row: the group sizes no longer sum to the input count.
  const BatchCheck c3 = check(row_box, records.size() - 1);
  Expect(c3.missing == 1 && c3.failed >= 1, "batch: dropped row fails");
}

std::string ReleaseJson(const std::vector<Record>& records,
                        const std::vector<std::vector<size_t>>& groups,
                        uint64_t k1, bool rids) {
  uint64_t total = 0;
  for (const auto& g : groups) total += g.size();
  std::string out = "{\"epoch\":3,\"records\":" + std::to_string(total) +
                    ",\"base_k\":5,\"k1\":" + std::to_string(k1) +
                    ",\"shards\":1,\"shard_epochs\":[3],\"min_partition\":1,"
                    "\"avg_ncp\":0.5,\"partitions\":[";
  for (size_t p = 0; p < groups.size(); ++p) {
    const Box b = BoxOf(records, groups[p]);
    out += (p ? ",{" : "{");
    out += "\"count\":" + std::to_string(groups[p].size()) + ",\"lo\":[";
    for (size_t d = 0; d < kDim; ++d) {
      if (d > 0) out += ',';
      out += Fmt(b.lo[d]);
    }
    out += "],\"hi\":[";
    for (size_t d = 0; d < kDim; ++d) {
      if (d > 0) out += ',';
      out += Fmt(b.hi[d]);
    }
    out += "]";
    if (rids) {
      out += ",\"rids\":[";
      for (size_t i = 0; i < groups[p].size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(groups[p][i]);
      }
      out += "]";
    }
    out += "}";
  }
  return out + "]}";
}

void IngestCases() {
  const size_t k = 5, k1 = 20;
  std::vector<Record> records;
  for (uint64_t i = 0; i < 60; ++i) records.push_back(MakeRecord(11, i));
  const auto base_groups = Groups(records, k);
  std::vector<std::vector<size_t>> coarse_groups;
  for (size_t i = 0; i < base_groups.size(); i += 4) {
    std::vector<size_t> merged;
    for (size_t j = i; j < i + 4 && j < base_groups.size(); ++j) {
      merged.insert(merged.end(), base_groups[j].begin(), base_groups[j].end());
    }
    coarse_groups.push_back(merged);
  }
  auto run = [&](const std::vector<std::vector<size_t>>& base_g,
                 const std::vector<std::vector<size_t>>& coarse_g,
                 const std::vector<Record>& acked) {
    Release base, coarse;
    const bool parsed =
        ParseRelease(ReleaseJson(records, base_g, k, true), &base) &&
        ParseRelease(ReleaseJson(records, coarse_g, k1, true), &coarse);
    Expect(parsed, "release: self-made bodies parse");
    return CheckIngestRelease(base, coarse, acked, k, k1);
  };
  const ReleaseCheck good = run(base_groups, coarse_groups, records);
  Expect(good.violations.empty() && good.records_uncovered == 0,
         "release: correct release passes");
  Expect(CheckFullBody(ReleaseJson(records, base_groups, k, false), k).empty(),
         "full body: correct body passes");

  // A dropped acked record: the server lost one of its records.
  auto dropped = base_groups;
  dropped[0].pop_back();
  const ReleaseCheck c1 = run(dropped, coarse_groups, records);
  Expect(!c1.violations.empty(), "release: dropped acked record fails");

  // A box shrunk to exclude a record it counts.
  Release base, coarse;
  ParseRelease(ReleaseJson(records, base_groups, k, true), &base);
  ParseRelease(ReleaseJson(records, coarse_groups, k1, true), &coarse);
  base.partitions[1].box.hi[0] = base.partitions[1].box.lo[0];
  const ReleaseCheck c2 = CheckIngestRelease(base, coarse, records, k, k1);
  Expect(!c2.violations.empty() || c2.records_uncovered > 0,
         "release: shrunk box fails");

  // A group of k-1 in the base release.
  auto small = base_groups;
  small[1].push_back(small[0].back());
  small[0].pop_back();
  const ReleaseCheck c3 = run(small, coarse_groups, records);
  Expect(!c3.violations.empty(), "release: group of k-1 fails");
  Expect(!CheckFullBody(ReleaseJson(records, small, k, false), k).empty(),
         "full body: group of k-1 fails");

  // Lemma 1: a coarse partition that splits a base partition.
  auto crossed = coarse_groups;
  std::swap(crossed[0].front(), crossed[1].front());
  const ReleaseCheck c4 = run(base_groups, crossed, records);
  Expect(!c4.violations.empty(), "release: non-nested coarse partition fails");
}

void DpCases() {
  // Height 3: 8 leaf cells; "records" is the root.
  const std::string good =
      "{\"semantics\":\"dp\",\"epsilon\":1,\"height\":3,\"dim\":9,"
      "\"domain\":[[0,1]],\"records\":36,\"cells\":[1,2,3,4,5,6,7,8]}";
  Expect(CheckDpBody(good).empty(), "dp: consistent hierarchy passes");
  std::string off = good;
  off.replace(off.find("36"), 2, "37");
  Expect(!CheckDpBody(off).empty(), "dp: parent off by one fails");
  std::string negative = good;
  negative.replace(negative.find("[1,2"), 4, "[-1,2");
  Expect(!CheckDpBody(negative).empty(), "dp: negative count fails");
  std::string fraction = good;
  fraction.replace(fraction.find(",8]"), 3, ",8.5]");
  Expect(!CheckDpBody(fraction).empty(), "dp: non-integer count fails");
}

void ReplicaCases() {
  const std::string leader = "{\"epoch\":4,\"records\":20,\"partitions\":[]}";
  std::string follower = leader;
  Expect(SameBody(leader, follower), "replica: identical bodies pass");
  follower[follower.size() - 3] = '}';
  Expect(!SameBody(leader, follower), "replica: one-byte difference fails");
}

}  // namespace

int RunSelfTest() {
  BatchCases();
  IngestCases();
  DpCases();
  ReplicaCases();
  std::printf("{\"ok\":%s,\"cases\":%d,\"failures\":%d}\n",
              g_failures == 0 ? "true" : "false", g_cases, g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace bench
