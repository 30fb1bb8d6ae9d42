// String helpers for keyword tokenization and table rendering.

#ifndef MALIVA_UTIL_STRING_UTIL_H_
#define MALIVA_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace maliva {

/// Lower-cases ASCII letters in place-copy.
std::string ToLower(const std::string& s);

/// Splits on non-alphanumeric characters, lower-casing tokens and dropping
/// empties. This mirrors the tokenizer used to build the inverted text index.
std::vector<std::string> Tokenize(const std::string& text);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, const std::string& sep);

/// Appends `v` in fixed-point with `digits` decimals, byte-identical to
/// printf's `%.*f` (std::to_chars is specified to match it), without a
/// temporary string. `digits` must be at most 100.
void AppendFixed(std::string* out, double v, int digits);

/// Fixed-point rendering with `digits` decimals (for table output).
std::string FormatDouble(double v, int digits);

}  // namespace maliva

#endif  // MALIVA_UTIL_STRING_UTIL_H_
