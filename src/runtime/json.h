// JSON string escaping shared by every JSON writer in the library
// (telemetry snapshots, trace export, ConvReport, ServeReport and the
// admin plane's documents).
#pragma once

#include <string>
#include <string_view>

namespace ndirect {

/// Escape `s` for use between the quotes of a JSON string: quote and
/// backslash get a backslash, every control byte becomes \u00XX (a
/// bare control byte makes strict parsers reject the document). Bytes
/// >= 0x20 pass through unchanged, so UTF-8 input stays UTF-8.
inline std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace ndirect
