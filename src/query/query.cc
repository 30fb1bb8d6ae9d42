#include "query/query.h"

namespace maliva {

void Query::AppendTo(std::string* out) const {
  if (output == OutputKind::kHeatmap) {
    out->append("SELECT BIN_ID(").append(output_column).append("), COUNT(*)");
  } else {
    out->append("SELECT id, ").append(output_column);
  }
  out->append(" FROM ").append(table);
  if (join.has_value()) {
    out->append(" JOIN ").append(join->right_table).append(" ON ").append(table);
    out->append(".").append(join->left_key).append(" = ").append(join->right_table);
    out->append(".").append(join->right_key);
  }
  const char* sep = " WHERE ";
  for (const Predicate& p : predicates) {
    out->append(sep);
    p.AppendTo(out);
    sep = " AND ";
  }
  if (join.has_value()) {
    for (const Predicate& p : join->right_predicates) {
      out->append(sep).append(join->right_table).push_back('.');
      p.AppendTo(out);
      sep = " AND ";
    }
  }
  if (output == OutputKind::kHeatmap) {
    out->append(" GROUP BY BIN_ID(").append(output_column).push_back(')');
  }
}

std::string Query::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace maliva
