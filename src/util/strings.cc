#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace graphsig::util {

std::vector<std::string> SplitTokens(std::string_view input,
                                     std::string_view delims) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < input.size()) {
    while (i < input.size() && delims.find(input[i]) != std::string_view::npos) {
      ++i;
    }
    size_t start = i;
    while (i < input.size() && delims.find(input[i]) == std::string_view::npos) {
      ++i;
    }
    if (i > start) out.emplace_back(input.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> SplitFields(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt(std::string_view token) {
  if (token.empty()) return Status::ParseError("empty integer token");
  std::string buf(token);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view token) {
  if (token.empty()) return Status::ParseError("empty double token");
  std::string buf(token);
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::ParseError("double out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in double: " + buf);
  }
  return v;
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace graphsig::util
