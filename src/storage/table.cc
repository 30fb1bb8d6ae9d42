#include "storage/table.h"

#include <cassert>

namespace maliva {

Table::Table(std::string name, const Schema& schema) : name_(std::move(name)) {
  columns_.reserve(schema.size());
  for (const ColumnSpec& spec : schema) {
    columns_.emplace_back(spec.name, spec.type);
  }
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return Status::NotFound("no column named '" + name + "' in table '" + name_ + "'");
}

const Column& Table::GetColumn(const std::string& name) const {
  Result<size_t> idx = ColumnIndex(name);
  assert(idx.ok());
  return columns_[idx.value()];
}

Status Table::Seal() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return Status::OK();
  }
  size_t n = columns_[0].size();
  for (const Column& col : columns_) {
    if (col.size() != n) {
      return Status::FailedPrecondition("ragged columns in table '" + name_ + "'");
    }
  }
  num_rows_ = n;
  return Status::OK();
}

std::unique_ptr<Table> Table::Sample(double fraction, Rng* rng,
                                     std::string sample_name) const {
  assert(fraction > 0.0 && fraction <= 1.0);
  Schema schema;
  schema.reserve(columns_.size());
  for (const Column& col : columns_) schema.push_back({col.name(), col.type()});
  auto sample = std::make_unique<Table>(std::move(sample_name), schema);

  for (RowId row = 0; row < num_rows_; ++row) {
    if (!rng->Bernoulli(fraction)) continue;
    for (size_t c = 0; c < columns_.size(); ++c) {
      const Column& src = columns_[c];
      Column& dst = sample->MutableColumnAt(c);
      switch (src.type()) {
        case ColumnType::kInt64: dst.AppendInt64(src.Int64At(row)); break;
        case ColumnType::kDouble: dst.AppendDouble(src.DoubleAt(row)); break;
        case ColumnType::kTimestamp: dst.AppendTimestamp(src.TimestampAt(row)); break;
        case ColumnType::kPoint: dst.AppendPoint(src.PointAt(row)); break;
        case ColumnType::kText: dst.AppendText(src.TextAt(row)); break;
      }
    }
  }
  Status st = sample->Seal();
  assert(st.ok());
  (void)st;
  return sample;
}

}  // namespace maliva
