// In-memory columnar table with a simple schema.

#ifndef MALIVA_STORAGE_TABLE_H_
#define MALIVA_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"
#include "util/rng.h"
#include "util/status.h"

namespace maliva {

/// Column name + type pair.
struct ColumnSpec {
  std::string name;
  ColumnType type;
};

/// Ordered list of column specs.
using Schema = std::vector<ColumnSpec>;

/// A named table: a schema plus equal-length columns.
///
/// Tables are built once (by the workload generators or by sampling) and are
/// immutable afterwards; the engine and indexes hold const references.
class Table {
 public:
  Table(std::string name, const Schema& schema);

  const std::string& name() const { return name_; }
  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }

  /// Index of the named column, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// The named column; asserts existence (use ColumnIndex to probe safely).
  const Column& GetColumn(const std::string& name) const;
  const Column& ColumnAt(size_t idx) const { return columns_[idx]; }
  Column& MutableColumnAt(size_t idx) { return columns_[idx]; }

  /// Verifies all columns have equal length and fixes the row count.
  Status Seal();

  /// Random sample of rows (each kept with probability `fraction`), preserving
  /// column values (including original ids). Used for sample tables feeding
  /// approximation rules and the sampling-based QTE.
  std::unique_ptr<Table> Sample(double fraction, Rng* rng, std::string sample_name) const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace maliva

#endif  // MALIVA_STORAGE_TABLE_H_
