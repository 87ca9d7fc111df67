#ifndef KANON_TESTS_PROM_CHECK_H_
#define KANON_TESTS_PROM_CHECK_H_

// A checker for the Prometheus text exposition both serving roles emit on
// /metrics. It asserts what a scraper and `histogram_quantile` rely on:
//
//   - exactly one `# TYPE` line per metric family, before its samples;
//   - per histogram label set: `le` ascending and ending in "+Inf",
//     cumulative bucket counts that never decrease, and +Inf == _count;
//   - every label set of one histogram family has the same `le` set.
//
// PromLeSets extracts each histogram family's `le` set, so a test can also
// assert that the bounds do not move between two scrapes.

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace kanon::testing {

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parses `name{k="v",...} value`; false when the line is malformed.
inline bool ParsePromSample(const std::string& line, PromSample* out) {
  *out = PromSample{};
  size_t i = line.find_first_of("{ ");
  if (i == std::string::npos || i == 0) return false;
  out->name = line.substr(0, i);
  if (line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const size_t eq = line.find("=\"", i);
      if (eq == std::string::npos) return false;
      const size_t close = line.find('"', eq + 2);
      if (close == std::string::npos) return false;
      out->labels[line.substr(i, eq - i)] =
          line.substr(eq + 2, close - eq - 2);
      i = close + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return false;
    ++i;  // '}'
  }
  if (i >= line.size() || line[i] != ' ') return false;
  const char* begin = line.c_str() + i + 1;
  char* end = nullptr;
  out->value = std::strtod(begin, &end);
  return end != begin && *end == '\0';
}

/// The label set without `le`, as one sortable key.
inline std::string SeriesKey(const PromSample& s) {
  std::string key;
  for (const auto& [k, v] : s.labels) {
    if (k != "le") key += k + "=" + v + ",";
  }
  return key;
}

inline double LeValue(const std::string& le) {
  return le == "+Inf" ? 1e308 : std::strtod(le.c_str(), nullptr);
}

/// Each histogram family's `le` values, in order of first appearance.
inline std::map<std::string, std::set<std::string>> PromLeSets(
    const std::string& text) {
  std::map<std::string, std::set<std::string>> sets;
  std::istringstream in(text);
  std::string line;
  PromSample s;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || !ParsePromSample(line, &s)) continue;
    const auto le = s.labels.find("le");
    if (le == s.labels.end()) continue;
    sets[s.name.substr(0, s.name.size() - 7)].insert(le->second);
  }
  return sets;
}

/// Every violation found in one exposition (empty = valid).
inline std::vector<std::string> PromProblems(const std::string& text) {
  std::vector<std::string> problems;
  std::map<std::string, std::string> types;  // family -> type
  struct Series {
    std::vector<std::pair<std::string, double>> buckets;  // (le, count)
    bool has_count = false;
    double count = 0.0;
  };
  std::map<std::string, std::map<std::string, Series>> histograms;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      if (!types.emplace(family, type).second) {
        problems.push_back("second # TYPE line for " + family);
      }
      continue;
    }
    if (line[0] == '#') continue;
    PromSample s;
    if (!ParsePromSample(line, &s)) {
      problems.push_back("malformed sample: " + line);
      continue;
    }
    std::string family = s.name;
    std::string suffix;
    for (const std::string sfx : {"_bucket", "_sum", "_count"}) {
      if (s.name.size() <= sfx.size() ||
          s.name.compare(s.name.size() - sfx.size(), sfx.size(), sfx) != 0) {
        continue;
      }
      const std::string base = s.name.substr(0, s.name.size() - sfx.size());
      const auto type = types.find(base);
      if (type != types.end() && type->second == "histogram") {
        family = base;
        suffix = sfx;
      }
    }
    if (types.count(family) == 0) {
      problems.push_back("sample before any # TYPE for its family: " + line);
      continue;
    }
    if (types[family] != "histogram") continue;
    Series& series = histograms[family][SeriesKey(s)];
    if (suffix == "_bucket") {
      const auto le = s.labels.find("le");
      if (le == s.labels.end()) {
        problems.push_back("bucket without le: " + line);
        continue;
      }
      series.buckets.emplace_back(le->second, s.value);
    } else if (suffix == "_count") {
      series.has_count = true;
      series.count = s.value;
    }
  }
  for (const auto& [family, by_labels] : histograms) {
    std::set<std::string> first_les;
    bool first = true;
    for (const auto& [labels, series] : by_labels) {
      const std::string where = family + "{" + labels + "}";
      std::set<std::string> les;
      for (size_t b = 0; b < series.buckets.size(); ++b) {
        les.insert(series.buckets[b].first);
        if (b == 0) continue;
        if (LeValue(series.buckets[b].first) <=
            LeValue(series.buckets[b - 1].first)) {
          problems.push_back(where + ": le not ascending at " +
                             series.buckets[b].first);
        }
        if (series.buckets[b].second < series.buckets[b - 1].second) {
          problems.push_back(where + ": bucket count decreases at le=" +
                             series.buckets[b].first);
        }
      }
      if (series.buckets.empty() || series.buckets.back().first != "+Inf") {
        problems.push_back(where + ": no trailing +Inf bucket");
      } else if (!series.has_count) {
        problems.push_back(where + ": no _count");
      } else if (series.buckets.back().second != series.count) {
        std::ostringstream msg;
        msg << where << ": +Inf bucket " << series.buckets.back().second
            << " != _count " << series.count;
        problems.push_back(msg.str());
      }
      if (first) {
        first_les = les;
        first = false;
      } else if (les != first_les) {
        problems.push_back(where + ": le set differs from its family's");
      }
    }
  }
  return problems;
}

}  // namespace kanon::testing

#endif  // KANON_TESTS_PROM_CHECK_H_
