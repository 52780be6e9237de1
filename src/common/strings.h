#ifndef TCM_COMMON_STRINGS_H_
#define TCM_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace tcm {

// Splits `text` on `delimiter`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> SplitString(std::string_view text, char delimiter);

// Joins `parts` with `delimiter`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delimiter);

// Removes leading and trailing whitespace: the C locale's set (space
// and '\t' through '\r'), whatever the process locale.
std::string_view StripWhitespace(std::string_view text);

// Parses a double; returns false on malformed or trailing garbage.
// Surrounding whitespace is stripped first.
bool ParseDouble(std::string_view text, double* out);

// ParseDouble of text that is already stripped: `text` must be the
// number and nothing else.
bool ParseStrippedDouble(std::string_view text, double* out);

// Formats a double with `precision` significant decimal digits, trimming
// trailing zeros ("12.5", "0.01", "3").
std::string FormatDouble(double value, int precision = 6);

}  // namespace tcm

#endif  // TCM_COMMON_STRINGS_H_
