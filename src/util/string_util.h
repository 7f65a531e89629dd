#ifndef TDMATCH_UTIL_STRING_UTIL_H_
#define TDMATCH_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tdmatch {
namespace util {

/// Splits on a single delimiter character; empty pieces are kept unless
/// `skip_empty` is set.
std::vector<std::string> Split(std::string_view s, char delim,
                               bool skip_empty = false);

/// Splits on any ASCII whitespace; empty pieces are never produced.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing (bytes >= 0x80 are passed through untouched).
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True when every character is an ASCII digit, optionally after a sign and
/// with at most one decimal point ("-3.14", "42").
bool IsNumeric(std::string_view s);

/// Parses a double; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Levenshtein edit distance (O(|a|·|b|), small-string use only).
size_t EditDistance(std::string_view a, std::string_view b);

/// FNV-1a-style 64-bit hash of `s` with `seed` xored into the start
/// value, for hashed features. The start value 1469598103934665603 is
/// NOT the standard FNV-1a offset basis (14695981039346656037, one digit
/// longer); it stays bit for bit because hashed features depend on it.
uint64_t FnvHash(std::string_view s, uint64_t seed = 0);

}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_STRING_UTIL_H_
