#include "common/strings.h"

#include <charconv>
#include <system_error>

namespace tcm {

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delimiter) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delimiter);
    out.append(parts[i]);
  }
  return out;
}

namespace {

// std::isspace would read the process locale.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsAsciiSpace(text[begin])) ++begin;
  size_t end = text.size();
  while (end > begin && IsAsciiSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool ParseDouble(std::string_view text, double* out) {
  return ParseStrippedDouble(StripWhitespace(text), out);
}

// std::from_chars/std::to_chars instead of strtod/printf: the C calls
// read LC_NUMERIC, so a host running under a comma-decimal locale (e.g.
// de_DE) would misparse "3.5" and format 3.5 as "3,5" — numbers in CSV
// cells and specs must not depend on the process's locale.
bool ParseStrippedDouble(std::string_view text, double* out) {
  // strtod accepted an explicit leading '+'; from_chars does not.
  if (!text.empty() && text.front() == '+') text.remove_prefix(1);
  if (text.empty()) return false;
  double value = 0.0;
  auto result = std::from_chars(text.data(), text.data() + text.size(),
                                value, std::chars_format::general);
  if (result.ec != std::errc() || result.ptr != text.data() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                              std::chars_format::general, precision);
  if (result.ec != std::errc()) return "0";  // cannot happen at this size
  return std::string(buffer, result.ptr);
}

}  // namespace tcm
