#include "agrawal.h"

#include <cstdio>

namespace bench {

namespace {

// Columns drawn as cents; the rest are integers.
constexpr std::array<bool, kDim> kMoney = {true,  true,  false, false, false,
                                           false, true,  false, true};

uint64_t Draw(uint64_t seed, uint64_t index, uint64_t field) {
  return Mix(seed * 0x9E3779B97F4A7C15ull ^ Mix(index * 16 + field));
}

// Uniform integer in [lo, hi].
int64_t Uniform(uint64_t bits, int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(bits % span);
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const std::array<std::pair<double, double>, kDim>& Domain() {
  static const std::array<std::pair<double, double>, kDim> kDomain = {{
      {20000, 150000},   // salary
      {0, 75000},        // commission
      {20, 80},          // age
      {0, 4},            // elevel
      {1, 20},           // car
      {0, 8},            // zipcode
      {50000, 1350000},  // hvalue
      {1, 30},           // hyears
      {0, 500000},       // loan
  }};
  return kDomain;
}

std::string DomainFlag() {
  std::string out;
  for (const auto& [lo, hi] : Domain()) {
    if (!out.empty()) out += ",";
    out += std::to_string(static_cast<int64_t>(lo)) + ":" +
           std::to_string(static_cast<int64_t>(hi));
  }
  return out;
}

Record MakeRecord(uint64_t seed, uint64_t index) {
  int64_t raw[kDim];
  raw[0] = Uniform(Draw(seed, index, 0), 2000000, 15000000);  // salary, cents
  raw[1] = raw[0] >= 7500000
               ? 0
               : Uniform(Draw(seed, index, 1), 1000000, 7500000);
  raw[2] = Uniform(Draw(seed, index, 2), 20, 80);
  raw[3] = Uniform(Draw(seed, index, 3), 0, 4);
  raw[4] = Uniform(Draw(seed, index, 4), 1, 20);
  raw[5] = Uniform(Draw(seed, index, 5), 0, 8);
  // House value depends on the zipcode: 0.5..1.5 x 100,000 x (zip + 1).
  raw[6] = Uniform(Draw(seed, index, 6), 5000000 * (raw[5] + 1),
                   15000000 * (raw[5] + 1));
  raw[7] = Uniform(Draw(seed, index, 7), 1, 30);
  raw[8] = Uniform(Draw(seed, index, 8), 0, 50000000);
  Record r;
  for (size_t d = 0; d < kDim; ++d) {
    r.v[d] = kMoney[d] ? static_cast<double>(raw[d]) / 100.0
                       : static_cast<double>(raw[d]);
  }
  // Agrawal's classification function 1: group A iff age < 40 or >= 60.
  r.sensitive = (raw[2] < 40 || raw[2] >= 60) ? 0 : 1;
  return r;
}

void AppendCsv(const Record& r, std::string* out) {
  char buf[32];
  for (size_t d = 0; d < kDim; ++d) {
    // Round-trip through cents: v is the double nearest cents / 100.
    int n = 0;
    if (kMoney[d]) {
      const int64_t cents = static_cast<int64_t>(r.v[d] * 100.0 + 0.5);
      n = std::snprintf(buf, sizeof(buf), "%lld.%02lld,",
                        static_cast<long long>(cents / 100),
                        static_cast<long long>(cents % 100));
    } else {
      n = std::snprintf(buf, sizeof(buf), "%lld,",
                        static_cast<long long>(r.v[d]));
    }
    out->append(buf, static_cast<size_t>(n));
  }
  out->append(std::to_string(r.sensitive));
}

}  // namespace bench
