#include "query/signature.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "engine/binning.h"

namespace maliva {

namespace {

/// splitmix64 finalizer: the avalanche step of every signature hash.
uint64_t Avalanche(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return Avalanche(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

uint64_t MixString(uint64_t h, const std::string& s) {
  // FNV-1a over the bytes, then folded into the running hash.
  uint64_t f = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) f = (f ^ c) * 0x100000001b3ULL;
  return Mix(h, f);
}

/// Relative (mantissa) bin of a double: values within ~1/(2*bins) relative
/// distance share a bin. Sign and binary exponent are kept exactly, so bins
/// never cross orders of magnitude. Non-finite values hash by bit pattern.
/// Used for *extents* (range lengths, box dimensions), whose natural
/// resolution is relative to their own magnitude.
uint64_t BinDouble(double v, int bins) {
  if (!std::isfinite(v)) return Mix(0x6e616e, std::bit_cast<uint64_t>(v));
  if (v == 0.0) return 0;
  int exp = 0;
  double mantissa = std::frexp(std::fabs(v), &exp);  // mantissa in [0.5, 1)
  auto bucket = static_cast<uint64_t>((mantissa - 0.5) * 2.0 * bins);
  uint64_t h = Mix(std::signbit(v) ? 0x6e6567 : 0x706f73,
                   static_cast<uint64_t>(static_cast<int64_t>(exp)));
  return Mix(h, bucket);
}

/// Power-of-two envelope of a positive extent: ldexp(1, exp) in (v, 2v].
/// Deriving grid steps from the envelope (not the raw extent) keeps them
/// identical for every extent sharing a binary exponent, so keys stay stable
/// across extent jitter within a mantissa bin.
double Envelope(double v) {
  int exp = 0;
  std::frexp(v, &exp);
  return std::ldexp(1.0, exp);
}

/// Bin of a range's *anchor* (low bound) on a grid scaled to the range's own
/// extent: cell size = envelope(extent) / bins. A pan smaller than one cell
/// — i.e. a shift below ~1/bins of the window size — keeps the bin;
/// absolute magnitude (epoch seconds, coordinates) never coarsens it.
uint64_t BinAnchored(double v, double extent, int bins) {
  if (!std::isfinite(v) || !std::isfinite(extent) || extent <= 0.0) {
    return Mix(0x616273, BinDouble(v, bins));  // degenerate: relative bin of v
  }
  double step = Envelope(extent) / bins;
  double cell = std::floor(v / step);
  // Hash the cell index via its bit pattern: exact for |cell| < 2^53 and
  // still deterministic beyond.
  uint64_t h = Mix(0x616e63, static_cast<uint64_t>(
                                 static_cast<int64_t>(std::ilogb(step))));
  return Mix(h, std::bit_cast<uint64_t>(cell));
}

/// Bin of a box's min corner inside an extent-scaled tile: the corner's
/// power-of-two tile (sized to the box's width/height envelopes) plus its
/// cell within that tile via engine/binning.h. Sub-cell pans (below
/// ~extent / bins per axis) share the key; crossing a cell or tile, or
/// changing the extent envelope (zooming), does not.
uint64_t BinCorner(const GeoPoint& corner, double width, double height, int bins) {
  if (!std::isfinite(corner.lon) || !std::isfinite(corner.lat) ||
      !std::isfinite(width) || !std::isfinite(height) || width <= 0.0 ||
      height <= 0.0) {
    // Degenerate box: fall back to the world-viewport grid.
    static const BoundingBox kWorld{-180.0, -90.0, 180.0, 90.0};
    return Mix(0x776c64, static_cast<uint64_t>(BinId(corner, kWorld, bins)));
  }
  double tile_w = Envelope(width);
  double tile_h = Envelope(height);
  double tx = std::floor(corner.lon / tile_w);
  double ty = std::floor(corner.lat / tile_h);
  BoundingBox tile{tx * tile_w, ty * tile_h, tx * tile_w + tile_w,
                   ty * tile_h + tile_h};
  uint64_t h = Mix(0x74696c, static_cast<uint64_t>(
                                 static_cast<int64_t>(std::ilogb(tile_w))));
  h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(std::ilogb(tile_h))));
  h = Mix(h, std::bit_cast<uint64_t>(tx));
  h = Mix(h, std::bit_cast<uint64_t>(ty));
  return Mix(h, static_cast<uint64_t>(BinId(corner, tile, bins)));
}

uint64_t MixLiterals(uint64_t h, const Predicate& pred, int bins) {
  switch (pred.type) {
    case PredicateType::kKeyword:
      return MixString(h, pred.keyword);
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange:
      // Anchor and extent bin separately: the extent's relative binning
      // distinguishes an hour window from a minute window, and the anchor's
      // extent-scaled grid keeps resolution proportional to the window (a
      // minute window never aliases across hours just because its epoch
      // magnitude is large).
      h = Mix(h, BinAnchored(pred.range.lo, pred.range.Length(), bins));
      return Mix(h, BinDouble(pred.range.Length(), bins));
    case PredicateType::kSpatialBox:
      h = Mix(h, BinCorner(GeoPoint{pred.box.min_lon, pred.box.min_lat},
                           pred.box.Width(), pred.box.Height(), bins));
      h = Mix(h, BinDouble(pred.box.Width(), bins));
      return Mix(h, BinDouble(pred.box.Height(), bins));
  }
  return h;
}

}  // namespace

uint64_t PredicateSlotKey(const std::string& table, const Predicate& pred,
                          const SignatureOptions& opts) {
  int bins = std::max(1, opts.literal_bins);
  uint64_t h = 0x6d616c697661ULL;  // "maliva"
  h = MixString(h, table);
  h = MixString(h, pred.column);
  h = Mix(h, static_cast<uint64_t>(pred.type));
  return MixLiterals(h, pred, bins);
}

CanonicalQuery Canonicalize(const Query& query, const SignatureOptions& opts) {
  CanonicalQuery out;
  out.slot_keys.reserve(query.predicates.size() +
                        (query.join.has_value() ? query.join->right_predicates.size()
                                                : 0));
  for (const Predicate& pred : query.predicates) {
    out.slot_keys.push_back(PredicateSlotKey(query.table, pred, opts));
  }
  if (query.join.has_value()) {
    for (const Predicate& pred : query.join->right_predicates) {
      out.slot_keys.push_back(PredicateSlotKey(query.join->right_table, pred, opts));
    }
  }

  // Signature: table + join shape + the sorted key multiset per side, so
  // predicate order is immaterial while slot_keys keeps cache-slot order.
  // Ids and output/presentation fields are deliberately excluded.
  uint64_t h = 0x7369676eULL;  // "sign"
  h = MixString(h, query.table);
  size_t m = query.predicates.size();
  std::vector<uint64_t> sorted(out.slot_keys.begin(), out.slot_keys.begin() + m);
  std::sort(sorted.begin(), sorted.end());
  h = Mix(h, m);
  for (uint64_t key : sorted) h = Mix(h, key);
  if (query.join.has_value()) {
    h = MixString(h, query.join->right_table);
    h = MixString(h, query.join->left_key);
    h = MixString(h, query.join->right_key);
    std::vector<uint64_t> right(out.slot_keys.begin() + m, out.slot_keys.end());
    std::sort(right.begin(), right.end());
    h = Mix(h, right.size());
    for (uint64_t key : right) h = Mix(h, key);
  }
  out.signature.value = h;
  return out;
}

RequestFingerprint MakeRequestFingerprint(const QuerySignature& signature,
                                          const std::string& strategy,
                                          double tau_ms,
                                          std::optional<double> quality_floor,
                                          const FingerprintOptions& opts) {
  const double tau_bin_ms =
      (std::isfinite(opts.tau_bin_ms) && opts.tau_bin_ms > 0.0) ? opts.tau_bin_ms
                                                                : 25.0;
  const int floor_bins = std::max(1, opts.quality_floor_bins);

  uint64_t h = 0x72657170ULL;  // "reqp"
  h = Mix(h, signature.value);
  h = MixString(h, strategy);
  // Fixed-width tau bins: unlike literal binning (which scales with each
  // literal's own extent), budgets of one service live on one scale, so an
  // absolute grid keeps neighbouring taus shared and bin edges exact.
  // Non-finite taus are rejected upstream by request validation; hash the
  // bit pattern defensively so a stray NaN still gets a deterministic key.
  if (std::isfinite(tau_ms)) {
    h = Mix(h, std::bit_cast<uint64_t>(std::floor(tau_ms / tau_bin_ms)));
  } else {
    h = Mix(h, 0x6e616e7461ULL ^ std::bit_cast<uint64_t>(tau_ms));
  }
  if (quality_floor.has_value() && std::isfinite(*quality_floor)) {
    // Floors live in [0, 1]: uniform bins, with 1.0 clamped into the top
    // bin's closed end (floor(1.0 * bins) == bins is its own bucket, which
    // is fine — it is still deterministic and boundary-stable).
    h = Mix(h, 0x666c72);  // "flr"
    h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(
                   std::floor(*quality_floor * floor_bins))));
  } else {
    h = Mix(h, 0x6e6f666c72ULL);  // "noflr": absent floor is its own key
  }
  return RequestFingerprint{h};
}

}  // namespace maliva
