#include "util/string_util.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <system_error>

namespace maliva {

std::string ToLower(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!cur.empty()) {
      tokens.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  return tokens;
}

std::string Join(const std::vector<std::string>& pieces, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

void AppendFixed(std::string* out, double v, int digits) {
  assert(digits >= 0 && digits <= 100);
  // Widest fixed rendering: sign + 309 integer digits + '.' + 100 decimals.
  char buf[416];
  std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, digits);
  assert(r.ec == std::errc());
  out->append(buf, r.ptr);
}

std::string FormatDouble(double v, int digits) {
  std::string out;
  AppendFixed(&out, v, digits);
  return out;
}

}  // namespace maliva
