// Scalar value types stored in columns and referenced by predicates.

#ifndef MALIVA_STORAGE_VALUE_H_
#define MALIVA_STORAGE_VALUE_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace maliva {

/// Row identifier within a single table. Tables in this project are bounded
/// by available memory, so 32 bits suffice.
using RowId = uint32_t;

/// Column data types supported by the engine.
enum class ColumnType {
  kInt64,      ///< 64-bit integer (ids, counts)
  kDouble,     ///< double (prices, distances)
  kTimestamp,  ///< seconds since epoch, stored as int64
  kPoint,      ///< geo coordinate (lon, lat)
  kText,       ///< free text, indexed by keyword
};

/// Name of a ColumnType for error messages and table output.
const char* ColumnTypeName(ColumnType type);

/// Geographic coordinate.
struct GeoPoint {
  double lon = 0.0;
  double lat = 0.0;

  bool operator==(const GeoPoint& o) const { return lon == o.lon && lat == o.lat; }
};

/// Axis-aligned rectangle over (lon, lat); inclusive bounds.
struct BoundingBox {
  double min_lon = 0.0;
  double min_lat = 0.0;
  double max_lon = 0.0;
  double max_lat = 0.0;

  bool Contains(const GeoPoint& p) const {
    return p.lon >= min_lon && p.lon <= max_lon && p.lat >= min_lat && p.lat <= max_lat;
  }

  /// Whether `o` lies entirely inside this box (inclusive; false when any
  /// coordinate of either box is NaN).
  bool ContainsBox(const BoundingBox& o) const {
    return o.min_lon >= min_lon && o.max_lon <= max_lon && o.min_lat >= min_lat &&
           o.max_lat <= max_lat;
  }

  bool Intersects(const BoundingBox& o) const {
    return !(o.min_lon > max_lon || o.max_lon < min_lon || o.min_lat > max_lat ||
             o.max_lat < min_lat);
  }

  /// Smallest box covering both this box and `o`.
  BoundingBox Union(const BoundingBox& o) const {
    return BoundingBox{std::min(min_lon, o.min_lon), std::min(min_lat, o.min_lat),
                       std::max(max_lon, o.max_lon), std::max(max_lat, o.max_lat)};
  }

  /// Smallest box covering this box and point `p`.
  BoundingBox Extend(const GeoPoint& p) const {
    return BoundingBox{std::min(min_lon, p.lon), std::min(min_lat, p.lat),
                       std::max(max_lon, p.lon), std::max(max_lat, p.lat)};
  }

  double Width() const { return max_lon - min_lon; }
  double Height() const { return max_lat - min_lat; }
  double Area() const { return Width() * Height(); }
};

/// Inclusive numeric interval used by range predicates on int64/double/
/// timestamp columns (values are widened to double for comparison).
struct NumericRange {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double v) const { return v >= lo && v <= hi; }
  double Length() const { return hi - lo; }
};

}  // namespace maliva

#endif  // MALIVA_STORAGE_VALUE_H_
