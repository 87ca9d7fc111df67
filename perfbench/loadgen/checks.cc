#include "checks.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace bench {

namespace {

// ---- a small JSON cursor, enough for the program's release bodies --------

class Cursor {
 public:
  explicit Cursor(const std::string& s) : p_(s.c_str()), end_(p_ + s.size()) {}

  bool ok() const { return ok_; }
  void Fail() { ok_ = false; }

  void Ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' ||
                         *p_ == '\t')) {
      ++p_;
    }
  }
  bool Eat(char c) {
    Ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool Expect(char c) {
    if (!Eat(c)) ok_ = false;
    return ok_;
  }
  std::string String() {
    std::string out;
    if (!Expect('"')) return out;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\' && p_ + 1 < end_) ++p_;
      out.push_back(*p_++);
    }
    if (p_ >= end_) {
      ok_ = false;
      return out;
    }
    ++p_;
    return out;
  }
  double Number() {
    Ws();
    char* e = nullptr;
    const double v = std::strtod(p_, &e);
    if (e == p_ || e > end_) {
      ok_ = false;
      return 0.0;
    }
    p_ = e;
    return v;
  }
  // Non-negative integer with no fraction or exponent.
  bool Integer(uint64_t* v) {
    Ws();
    const char* start = p_;
    uint64_t x = 0;
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') x = x * 10 + (*p_++ - '0');
    if (p_ == start || (p_ < end_ && (*p_ == '.' || *p_ == 'e' ||
                                      *p_ == 'E'))) {
      ok_ = false;
      return false;
    }
    *v = x;
    return true;
  }
  void Skip() {
    Ws();
    if (p_ >= end_) {
      ok_ = false;
      return;
    }
    if (*p_ == '"') {
      String();
    } else if (*p_ == '{' || *p_ == '[') {
      const char close = *p_ == '{' ? '}' : ']';
      ++p_;
      if (Eat(close)) return;
      do {
        if (close == '}') {
          String();
          Expect(':');
        }
        Skip();
      } while (ok_ && Eat(','));
      Expect(close);
    } else if (*p_ == 't' || *p_ == 'f' || *p_ == 'n') {
      while (p_ < end_ && std::isalpha(static_cast<unsigned char>(*p_))) ++p_;
    } else {
      Number();
    }
  }
  // Iterates the members of an object; `fn(key)` must consume the value.
  template <typename Fn>
  void Object(Fn fn) {
    if (!Expect('{')) return;
    if (Eat('}')) return;
    do {
      const std::string key = String();
      if (!Expect(':')) return;
      fn(key);
    } while (ok_ && Eat(','));
    Expect('}');
  }
  template <typename Fn>
  void Array(Fn fn) {
    if (!Expect('[')) return;
    if (Eat(']')) return;
    do {
      fn();
    } while (ok_ && Eat(','));
    Expect(']');
  }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

void ReadBounds(Cursor* c, std::array<double, kDim>* out) {
  size_t i = 0;
  c->Array([&] {
    const double v = c->Number();
    if (i < kDim) (*out)[i] = v;
    ++i;
  });
  if (i != kDim) c->Fail();
}

// Value of the first top-level-looking `"key":<uint>` in `body`.
bool FindUint(const std::string& body, const char* key, uint64_t* v) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  char* e = nullptr;
  *v = std::strtoull(body.c_str() + at + needle.size(), &e, 10);
  return e != body.c_str() + at + needle.size();
}

uint64_t Fnv1a(const char* p, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// Static k-d tree over points, for "which records lie in this box".
class KdTree {
 public:
  explicit KdTree(const std::vector<Record>& points) : points_(points) {
    idx_.resize(points.size());
    split_.resize(points.size());
    for (size_t i = 0; i < idx_.size(); ++i) idx_[i] = static_cast<uint32_t>(i);
    Build(0, idx_.size(), 0);
  }
  template <typename Fn>
  void Query(const Box& box, Fn fn) const {
    Query(box, 0, idx_.size(), 0, fn);
  }

 private:
  static constexpr size_t kLeaf = 16;
  void Build(size_t b, size_t e, size_t depth) {
    if (e - b <= kLeaf) return;
    const size_t axis = depth % kDim;
    const size_t mid = b + (e - b) / 2;
    std::nth_element(idx_.begin() + b, idx_.begin() + mid, idx_.begin() + e,
                     [&](uint32_t x, uint32_t y) {
                       return points_[x].v[axis] < points_[y].v[axis];
                     });
    // Children reorder their halves, so the pivot value is kept per node
    // (every node's mid index is distinct).
    split_[mid] = points_[idx_[mid]].v[axis];
    Build(b, mid, depth + 1);
    Build(mid, e, depth + 1);
  }
  static bool Inside(const Box& box, const Record& r) {
    for (size_t d = 0; d < kDim; ++d) {
      if (r.v[d] < box.lo[d] || r.v[d] > box.hi[d]) return false;
    }
    return true;
  }
  template <typename Fn>
  void Query(const Box& box, size_t b, size_t e, size_t depth, Fn& fn) const {
    if (e - b <= kLeaf) {
      for (size_t i = b; i < e; ++i) {
        if (Inside(box, points_[idx_[i]])) fn(idx_[i]);
      }
      return;
    }
    const size_t axis = depth % kDim;
    const size_t mid = b + (e - b) / 2;
    const double split = split_[mid];
    // [b, mid) holds values <= split, [mid, e) values >= split.
    if (box.lo[axis] <= split) Query(box, b, mid, depth + 1, fn);
    if (box.hi[axis] >= split) Query(box, mid, e, depth + 1, fn);
  }

  const std::vector<Record>& points_;
  std::vector<uint32_t> idx_;
  std::vector<double> split_;
};

}  // namespace

BatchCheck CheckBatchOutput(const std::vector<Record>& input, std::istream& out,
                            size_t k) {
  BatchCheck result;
  result.rows = input.size();
  // The program normalizes NCP by the input's own extent per attribute.
  std::array<double, kDim> lo;
  std::array<double, kDim> hi;
  lo.fill(INFINITY);
  hi.fill(-INFINITY);
  for (const Record& r : input) {
    for (size_t d = 0; d < kDim; ++d) {
      lo[d] = std::min(lo[d], r.v[d]);
      hi[d] = std::max(hi[d], r.v[d]);
    }
  }

  std::vector<uint64_t> box_hash;
  std::vector<uint8_t> bad;  // per row: failed a per-row check
  box_hash.reserve(input.size());
  bad.reserve(input.size());
  std::unordered_map<uint64_t, uint32_t> group_size;
  group_size.reserve(input.size() / 4);
  std::string line;
  std::getline(out, line);  // header
  double ncp_sum = 0.0;
  while (box_hash.size() < input.size() && std::getline(out, line)) {
    const Record& r = input[box_hash.size()];
    bool ok = true;
    double ncp = 0.0;
    const char* p = line.c_str();
    for (size_t d = 0; d < kDim; ++d) {
      // A cell is "lo..hi,"; strtod alone would eat "5." of "5..6".
      const char* comma = std::strchr(p, ',');
      const char* dots = std::strstr(p, "..");
      if (comma == nullptr || dots == nullptr || dots > comma) {
        ok = false;
        break;
      }
      const std::string lo_text(p, dots);
      const std::string hi_text(dots + 2, comma);
      char* e = nullptr;
      const double cell_lo = std::strtod(lo_text.c_str(), &e);
      const bool lo_ok = !lo_text.empty() && *e == '\0';
      const double cell_hi = std::strtod(hi_text.c_str(), &e);
      if (!lo_ok || hi_text.empty() || *e != '\0') {
        ok = false;
        break;
      }
      p = comma + 1;
      if (r.v[d] < cell_lo || r.v[d] > cell_hi) ok = false;
      if (hi[d] > lo[d]) ncp += (cell_hi - cell_lo) / (hi[d] - lo[d]);
    }
    const size_t box_len = static_cast<size_t>(p - line.c_str());
    if (!ok) ++result.not_contained;
    if (std::atoi(p) != r.sensitive) {
      ++result.wrong_sensitive;
      ok = false;
    }
    ncp_sum += ncp / kDim;
    const uint64_t h = Fnv1a(line.c_str(), box_len);
    box_hash.push_back(h);
    bad.push_back(ok ? 0 : 1);
    ++group_size[h];
  }
  result.missing = input.size() - box_hash.size();
  result.failed = result.missing;
  for (size_t i = 0; i < box_hash.size(); ++i) {
    if (group_size[box_hash[i]] < k) {
      ++result.small_group;
      bad[i] = 1;
    }
    result.failed += bad[i];
  }
  result.ncp = box_hash.empty() ? 0.0 : ncp_sum / box_hash.size();
  return result;
}

bool ParseRelease(const std::string& body, Release* out) {
  *out = Release{};
  Cursor c(body);
  c.Object([&](const std::string& key) {
    if (key == "epoch") {
      c.Integer(&out->epoch);
    } else if (key == "records") {
      c.Integer(&out->records);
    } else if (key == "partitions") {
      c.Array([&] {
        Partition part;
        c.Object([&](const std::string& pkey) {
          if (pkey == "count") {
            c.Integer(&part.count);
          } else if (pkey == "lo") {
            ReadBounds(&c, &part.box.lo);
          } else if (pkey == "hi") {
            ReadBounds(&c, &part.box.hi);
          } else if (pkey == "rids") {
            c.Array([&] {
              uint64_t rid = 0;
              c.Integer(&rid);
              part.rids.push_back(rid);
            });
          } else {
            c.Skip();
          }
        });
        out->partitions.push_back(std::move(part));
      });
    } else {
      c.Skip();
    }
  });
  return c.ok();
}

std::string CheckFullBody(const std::string& body, uint64_t k1) {
  uint64_t records = 0;
  uint64_t body_k1 = 0;
  if (!FindUint(body, "records", &records) || !FindUint(body, "k1", &body_k1)) {
    return "release body lacks records/k1";
  }
  const uint64_t need = std::max(k1, body_k1);
  const std::string needle = "\"count\":";
  uint64_t sum = 0;
  uint64_t parts = 0;
  for (size_t at = body.find(needle); at != std::string::npos;
       at = body.find(needle, at + needle.size())) {
    const uint64_t count =
        std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
    if (count < need) {
      return "partition of " + std::to_string(count) + " < k1=" +
             std::to_string(need);
    }
    sum += count;
    ++parts;
  }
  if (parts == 0 || sum != records) {
    return "sum of counts " + std::to_string(sum) + " != records " +
           std::to_string(records);
  }
  return "";
}

bool ParseSummary(const std::string& body, uint64_t* records,
                  uint64_t* min_partition, uint64_t* epoch) {
  return FindUint(body, "records", records) &&
         FindUint(body, "min_partition", min_partition) &&
         FindUint(body, "epoch", epoch);
}

double ReleaseNcp(const Release& release) {
  const auto& domain = Domain();
  double penalty = 0.0;
  uint64_t records = 0;
  for (const Partition& p : release.partitions) {
    double ncp = 0.0;
    for (size_t d = 0; d < kDim; ++d) {
      ncp += (p.box.hi[d] - p.box.lo[d]) /
             (domain[d].second - domain[d].first);
    }
    penalty += ncp * static_cast<double>(p.count);
    records += p.count;
  }
  return records == 0 ? 0.0 : penalty / (static_cast<double>(records) * kDim);
}

ReleaseCheck CheckIngestRelease(const Release& base, const Release& coarse,
                                const std::vector<Record>& acked, size_t k,
                                size_t k1) {
  ReleaseCheck result;
  result.ncp = ReleaseNcp(base);

  uint64_t sum = 0;
  uint64_t min_count = UINT64_MAX;
  for (const Partition& p : base.partitions) {
    sum += p.count;
    min_count = std::min(min_count, p.count);
  }
  if (sum != acked.size() || base.records != acked.size()) {
    result.violations.push_back(
        "sum of counts " + std::to_string(sum) + " (records " +
        std::to_string(base.records) + ") != acked " +
        std::to_string(acked.size()));
  }
  if (base.partitions.empty() || min_count < k) {
    result.violations.push_back("a base partition holds fewer than k records");
  }

  // Containment: every acked record inside some box, every box holding at
  // least its count of acked records.
  std::vector<uint8_t> covered(acked.size(), 0);
  const KdTree tree(acked);
  uint64_t short_boxes = 0;
  for (const Partition& p : base.partitions) {
    uint64_t inside = 0;
    tree.Query(p.box, [&](uint32_t i) {
      covered[i] = 1;
      ++inside;
    });
    if (inside < p.count) ++short_boxes;
  }
  for (const uint8_t c : covered) result.records_uncovered += c == 0 ? 1 : 0;
  if (short_boxes > 0) {
    result.violations.push_back(std::to_string(short_boxes) +
                                " boxes hold fewer acked records than count");
  }

  // Lemma 1: each coarse partition is a union of base partitions.
  std::vector<int64_t> base_of;
  for (size_t b = 0; b < base.partitions.size(); ++b) {
    for (const uint64_t rid : base.partitions[b].rids) {
      if (rid >= base_of.size()) base_of.resize(rid + 1, -1);
      base_of[rid] = static_cast<int64_t>(b);
    }
  }
  bool nested = base.epoch == coarse.epoch && !coarse.partitions.empty();
  bool coarse_small = coarse.partitions.empty();
  for (const Partition& p : coarse.partitions) {
    if (p.count < k1 || p.rids.size() != p.count) coarse_small = true;
    std::vector<int64_t> members;
    for (const uint64_t rid : p.rids) {
      const int64_t b = rid < base_of.size() ? base_of[rid] : -1;
      if (b < 0) {
        nested = false;
        break;
      }
      members.push_back(b);
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    uint64_t covered_rids = 0;
    for (const int64_t b : members) covered_rids += base.partitions[b].rids.size();
    if (covered_rids != p.rids.size()) nested = false;
  }
  if (!nested) {
    result.violations.push_back(
        "a coarse partition is not a union of base partitions");
  }
  if (coarse_small) {
    result.violations.push_back("a coarse partition holds fewer than k1");
  }
  return result;
}

std::string CheckDpBody(const std::string& body) {
  Cursor c(body);
  uint64_t height = 0;
  uint64_t root = 0;
  bool have_root = false;
  std::vector<uint64_t> cells;
  c.Object([&](const std::string& key) {
    if (key == "height") {
      c.Integer(&height);
    } else if (key == "records") {
      have_root = c.Integer(&root);
    } else if (key == "cells") {
      // Integer() rejects negatives and fractions.
      c.Array([&] {
        uint64_t v = 0;
        c.Integer(&v);
        cells.push_back(v);
      });
    } else {
      c.Skip();
    }
  });
  if (!c.ok() || !have_root) return "malformed or non-integer DP body";
  if (height >= 40 || cells.size() != (uint64_t{1} << height)) {
    return "DP body has " + std::to_string(cells.size()) + " cells at height " +
           std::to_string(height);
  }
  // Rebuild every level bottom-up: each parent is the sum of its two
  // children, and the root must equal the released total.
  std::vector<uint64_t> level = cells;
  while (level.size() > 1) {
    std::vector<uint64_t> up(level.size() / 2);
    for (size_t i = 0; i < up.size(); ++i) up[i] = level[2 * i] + level[2 * i + 1];
    level.swap(up);
  }
  if (level[0] != root) {
    return "DP root " + std::to_string(root) + " != sum of children " +
           std::to_string(level[0]);
  }
  return "";
}

}  // namespace bench
