#include "anon/anonymized_table.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

namespace kanon {

StatusOr<AnonymizedTable> AnonymizedTable::FromPartitions(
    const Dataset& dataset, PartitionSet ps) {
  KANON_RETURN_IF_ERROR(ps.CheckCovers(dataset));
  AnonymizedTable table;
  table.record_to_partition_ =
      RecordToPartition(ps, dataset.num_records());
  table.partitions_ = std::move(ps);
  table.sensitive_.reserve(dataset.num_records());
  for (RecordId r = 0; r < dataset.num_records(); ++r) {
    table.sensitive_.push_back(dataset.sensitive(r));
  }
  return table;
}

namespace {

std::string FormatCell(const AttributeSpec& spec, double lo, double hi) {
  std::ostringstream os;
  if (spec.type == AttributeType::kCategorical && spec.hierarchy) {
    const Hierarchy& h = *spec.hierarchy;
    const int lo_code = static_cast<int>(std::floor(lo));
    const int hi_code = static_cast<int>(std::ceil(hi));
    const auto& node = h.node(h.Lca(lo_code, hi_code));
    if (node.lo == lo_code && node.hi == hi_code && node.parent >= 0) {
      os << node.label;  // an exact hierarchy node: print its label
    } else if (lo_code == hi_code) {
      os << lo_code;  // single unlabeled value: the code itself
    } else {
      os << h.LcaLabel(lo_code, hi_code);
    }
    return os.str();
  }
  if (lo == hi) {
    os << lo;
  } else {
    os << "[" << lo << " - " << hi << "]";
  }
  return os.str();
}

}  // namespace

std::string AnonymizedTable::RenderRow(const Schema& schema,
                                       RecordId rid) const {
  const Mbr& box = BoxOf(rid);
  std::ostringstream os;
  for (size_t a = 0; a < schema.dim(); ++a) {
    if (a > 0) os << ", ";
    os << FormatCell(schema.attribute(a), box.lo(a), box.hi(a));
  }
  os << ", " << sensitive_[rid];
  return os.str();
}

Status AnonymizedTable::WriteCsv(const std::string& path,
                                 const Schema& schema) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (size_t a = 0; a < schema.dim(); ++a) {
    out << schema.attribute(a).name << ",";
  }
  out << schema.sensitive_name() << "\n";
  // Shortest round-trip digits: a bound printed at stream precision can
  // round inward past the record it was built to contain.
  char buf[64];
  const auto put = [&](double v) {
    out.write(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
  };
  for (RecordId r = 0; r < num_records(); ++r) {
    const Mbr& box = BoxOf(r);
    for (size_t a = 0; a < schema.dim(); ++a) {
      put(box.lo(a));
      out << "..";
      put(box.hi(a));
      out << ",";
    }
    out << sensitive_[r] << "\n";
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace kanon
