#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gridsat::util {

namespace {
bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool parse_i64(std::string_view s, long long& out) noexcept {
  s = trim(s);
  if (s.empty() || s.size() > 20) return false;
  char buf[24];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  out = v;
  return true;
}

bool parse_f64(std::string_view s, double& out) noexcept {
  s = trim(s);
  if (s.empty() || s.size() > 48) return false;
  char buf[52];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  out = v;
  return true;
}

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds < 0) return "-";
  if (seconds < 120.0) {
    std::snprintf(buf, sizeof buf, "%.1f s", seconds);
  } else if (seconds < 7200.0) {
    std::snprintf(buf, sizeof buf, "%.1f min", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f h", seconds / 3600.0);
  }
  return buf;
}

std::string format_bytes(double bytes) {
  char buf[64];
  if (bytes < 1024.0) {
    std::snprintf(buf, sizeof buf, "%.0f B", bytes);
  } else if (bytes < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f KB", bytes / 1024.0);
  } else if (bytes < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f MB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof buf, "%.2f GB", bytes / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

std::string indexed_name(std::string_view prefix, std::size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

std::string pad_right(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

std::string pad_left(std::string s, std::size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

}  // namespace gridsat::util
