#ifndef GRAPHSIG_UTIL_STRINGS_H_
#define GRAPHSIG_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace graphsig::util {

// Splits on any single character in `delims`; consecutive delimiters
// produce no empty tokens (whitespace-style splitting).
std::vector<std::string> SplitTokens(std::string_view input,
                                     std::string_view delims = " \t\r\n");

// Splits on exactly `delim`, preserving empty fields (CSV-style).
std::vector<std::string> SplitFields(std::string_view input, char delim);

// Removes leading/trailing whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Strict integer / double parsing: the whole token must be consumed.
Result<int64_t> ParseInt(std::string_view token);
Result<double> ParseDouble(std::string_view token);

// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_STRINGS_H_
