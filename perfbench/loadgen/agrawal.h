// Seeded Agrawal-shaped record generator for the benchmark's load.
//
// Record i of seed s is a pure function of (s, i): any writer thread, and
// any later checker, can regenerate any record without shared state. The
// nine quasi-identifiers follow Agrawal et al. (TKDE 1993); salary,
// commission, house value and loan carry cents, so values above 10,000
// have more than six significant digits.
#ifndef PERFBENCH_LOADGEN_AGRAWAL_H_
#define PERFBENCH_LOADGEN_AGRAWAL_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>

namespace bench {

constexpr size_t kDim = 9;

struct Record {
  std::array<double, kDim> v{};
  int sensitive = 0;
};

/// Attribute ranges (closed) in column order: salary, commission, age,
/// elevel, car, zipcode, hvalue, hyears, loan.
const std::array<std::pair<double, double>, kDim>& Domain();

/// The `--domain` flag value for these ranges ("lo:hi,lo:hi,...").
std::string DomainFlag();

/// Record `index` of the stream selected by `seed`.
Record MakeRecord(uint64_t seed, uint64_t index);

/// Appends "v1,...,v9,s" (no newline): money with two decimals, the rest
/// as integers. The program parses these back to exactly the doubles in
/// `r`, so checks compare bit-equal values.
void AppendCsv(const Record& r, std::string* out);

/// SplitMix64 finalizer, also used for the benchmark's other seeded draws.
uint64_t Mix(uint64_t x);

}  // namespace bench

#endif  // PERFBENCH_LOADGEN_AGRAWAL_H_
