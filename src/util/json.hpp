// The one JSON codec: every JSON document the project reads (scaldtvd job
// lines, the write-ahead journal, netlist deltas) goes through parse(), and
// every JSON string it writes (reports, diagnostics, manifests, journal
// records) goes through escape_into().
//
// Accepted grammar: exactly one RFC 8259 value covering the whole input.
// Strings take every escape, `\uXXXX` and surrogate pairs included (decoded
// to UTF-8); raw bytes inside strings -- control bytes too -- are accepted
// as-is, so journals written by older escapers still replay. Object keys
// must be unique. Numbers follow the RFC token grammar exactly (no `+1`,
// `1-2`, `nan`, `inf`, leading zeros) and keep their source token; the
// accessors convert the whole token or refuse. Errors name a byte offset.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tv::json {

struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  /// String: the decoded UTF-8 text. Number: the source token, verbatim.
  std::string text;
  std::vector<Value> items;                            // Array
  std::vector<std::pair<std::string, Value>> members;  // Object, source order

  /// The member named `key` of an object; nullptr when absent (or when
  /// this is not an object).
  const Value* get(std::string_view key) const;
  /// The number's exact integer value; nullopt for non-numbers, values
  /// with a fractional part, and values outside int64.
  std::optional<std::int64_t> as_int64() const;
  /// The number's value; nullopt for non-numbers and values that overflow
  /// a double.
  std::optional<double> as_double() const;
};

/// Parses `text` as one JSON value. On malformed input returns nullopt and
/// sets *error (when non-null) to "<what> at offset <byte>".
std::optional<Value> parse(std::string_view text, std::string* error);

/// Appends `s` escaped for use inside a JSON string literal (the quotes are
/// the caller's): `\"`, `\\`, `\n`, `\t`, `\r`, `\u00XX` for the other
/// bytes below 0x20; every other byte is copied through.
void escape_into(std::string& out, std::string_view s);

}  // namespace tv::json
