#include "query/predicate.h"

#include "util/string_util.h"

namespace maliva {

Predicate Predicate::Keyword(std::string column, std::string keyword) {
  Predicate p;
  p.type = PredicateType::kKeyword;
  p.column = std::move(column);
  p.keyword = ToLower(keyword);
  return p;
}

Predicate Predicate::Time(std::string column, double lo, double hi) {
  Predicate p;
  p.type = PredicateType::kTimeRange;
  p.column = std::move(column);
  p.range = {lo, hi};
  return p;
}

Predicate Predicate::Numeric(std::string column, double lo, double hi) {
  Predicate p;
  p.type = PredicateType::kNumericRange;
  p.column = std::move(column);
  p.range = {lo, hi};
  return p;
}

Predicate Predicate::Spatial(std::string column, const BoundingBox& box) {
  Predicate p;
  p.type = PredicateType::kSpatialBox;
  p.column = std::move(column);
  p.box = box;
  return p;
}

void Predicate::AppendTo(std::string* out) const {
  switch (type) {
    case PredicateType::kKeyword:
      out->append(column).append(" CONTAINS '").append(keyword).push_back('\'');
      return;
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange:
      out->append(column).append(" BETWEEN ");
      AppendFixed(out, range.lo, 2);
      out->append(" AND ");
      AppendFixed(out, range.hi, 2);
      return;
    case PredicateType::kSpatialBox:
      out->append(column).append(" IN BOX((");
      AppendFixed(out, box.min_lon, 2);
      out->push_back(',');
      AppendFixed(out, box.min_lat, 2);
      out->append("),(");
      AppendFixed(out, box.max_lon, 2);
      out->push_back(',');
      AppendFixed(out, box.max_lat, 2);
      out->append("))");
      return;
  }
  out->append("<invalid>");
}

std::string Predicate::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace maliva
