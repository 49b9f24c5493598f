// Small string helpers shared by the DIMACS parser, flag parser, and
// bench table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gridsat::util {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Split on a delimiter character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on runs of whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parse a decimal integer; returns false on any non-numeric content.
bool parse_i64(std::string_view s, long long& out) noexcept;
bool parse_f64(std::string_view s, double& out) noexcept;

/// Render seconds as "1234.5 s" or "33.0 h" style human strings used in
/// the Table-2 reproduction ("33hrs+(8hrs on BH)").
std::string format_duration(double seconds);

/// Render a byte count as "512 B" / "3.2 MB" / "1.1 GB".
std::string format_bytes(double bytes);

/// `prefix` followed by the decimal `index`, e.g. "a3" (generated net and
/// host names). Built by appending: GCC 12 in a Release (-O3) build flags
/// `"a" + std::to_string(i)` with a false -Wrestrict.
std::string indexed_name(std::string_view prefix, std::size_t index);

/// Left/right pad to a column width (bench table printers).
std::string pad_right(std::string s, std::size_t width);
std::string pad_left(std::string s, std::size_t width);

}  // namespace gridsat::util
