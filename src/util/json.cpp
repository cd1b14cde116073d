#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace tv::json {

namespace {

// Bounds the recursion so a hostile `[[[[...` cannot exhaust the stack.
constexpr int kMaxDepth = 256;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
  for (int k = tail - 1; k >= 0; --k) out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
}

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  std::string error;

  bool fail(const std::string& why) {
    error = why + " at offset " + std::to_string(i);
    return false;
  }
  bool at(char c) const { return i < s.size() && s[i] == c; }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++i;
  }
  bool digits() {
    std::size_t from = i;
    while (i < s.size() && is_digit(s[i])) ++i;
    return i > from;
  }

  bool value(Value& out, int depth) {
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    switch (s[i]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"': out.type = Value::Type::String; return string(out.text);
      case 't': out.type = Value::Type::Bool; out.boolean = true; return literal("true");
      case 'f': out.type = Value::Type::Bool; return literal("false");
      case 'n': return literal("null");
      default: return number(out);
    }
  }
  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) != word) return fail("invalid literal");
    i += word.size();
    return true;
  }
  bool number(Value& out) {
    std::size_t start = i;
    if (at('-')) ++i;
    if (at('0')) {
      ++i;
    } else if (!digits()) {
      i = start;
      return fail("expected a value");
    }
    if (at('.')) {
      ++i;
      if (!digits()) return fail("expected a digit after '.'");
    }
    if (at('e') || at('E')) {
      ++i;
      if (at('+') || at('-')) ++i;
      if (!digits()) return fail("expected an exponent digit");
    }
    out.type = Value::Type::Number;
    out.text.assign(s.substr(start, i - start));
    return true;
  }
  bool hex4(std::uint32_t& cp) {
    cp = 0;
    for (int k = 0; k < 4; ++k, ++i) {
      char c = i < s.size() ? s[i] : '\0';
      char lower = static_cast<char>(c | 0x20);
      int d = is_digit(c) ? c - '0' : lower >= 'a' && lower <= 'f' ? lower - 'a' + 10 : -1;
      if (d < 0) return fail("invalid \\u escape");
      cp = cp * 16 + static_cast<std::uint32_t>(d);
    }
    return true;
  }
  bool unicode(std::string& out) {
    std::uint32_t cp = 0, lo = 0;
    if (!hex4(cp)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF && s.substr(i, 2) == "\\u") {
      i += 2;
      if (!hex4(lo)) return false;
      if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate in \\u escape");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xD800 && cp <= 0xDFFF) {
      return fail("unpaired surrogate in \\u escape");
    }
    append_utf8(out, cp);
    return true;
  }
  bool string(std::string& out) {
    ++i;  // opening quote
    out.clear();
    for (;;) {
      std::size_t run = i;
      while (i < s.size() && s[i] != '"' && s[i] != '\\') ++i;
      out.append(s.data() + run, i - run);
      if (i >= s.size()) return fail("unterminated string");
      if (s[i++] == '"') return true;
      if (i >= s.size()) return fail("unterminated string");
      char e = s[i++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': if (!unicode(out)) return false; break;
        default: --i; return fail("invalid escape");
      }
    }
  }
  // An array or object body: `element` parses one entry; entries are
  // separated by ',' and the list ends at `close`.
  template <class Element>
  bool list(char close, int depth, Element&& element) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    ++i;  // the opening bracket
    skip_ws();
    bool more = !at(close);
    while (more) {
      if (!element()) return false;
      skip_ws();
      more = at(',');
      if (!more && !at(close)) return fail(std::string("expected ',' or '") + close + "'");
      if (more) ++i;
    }
    ++i;  // the closing bracket
    return true;
  }
  bool array(Value& out, int depth) {
    out.type = Value::Type::Array;
    return list(']', depth, [&] { return value(out.items.emplace_back(), depth + 1); });
  }
  bool object(Value& out, int depth) {
    out.type = Value::Type::Object;
    return list('}', depth, [&] {
      skip_ws();
      if (!at('"')) return fail("expected a string key");
      std::size_t key_at = i;
      std::string key;
      if (!string(key)) return false;
      if (out.get(key)) {
        i = key_at;
        return fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      if (!at(':')) return fail("expected ':'");
      ++i;
      return value(out.members.emplace_back(std::move(key), Value{}).second, depth + 1);
    });
  }
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::int64_t> Value::as_int64() const {
  if (type != Type::Number) return std::nullopt;
  if (text.find_first_of(".eE") == std::string::npos) {
    errno = 0;
    long long v = std::strtoll(text.c_str(), nullptr, 10);
    if (errno == ERANGE) return std::nullopt;
    return v;
  }
  std::optional<double> d = as_double();
  // [-2^63, 2^63) is exactly the doubles that fit an int64.
  if (!d || *d != std::floor(*d) || *d < -0x1p63 || *d >= 0x1p63) return std::nullopt;
  return static_cast<std::int64_t>(*d);
}

std::optional<double> Value::as_double() const {
  if (type != Type::Number) return std::nullopt;
  double v = std::strtod(text.c_str(), nullptr);
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Value root;
  bool ok = p.value(root, 0);
  p.skip_ws();
  if (ok && p.i != text.size()) ok = p.fail("trailing characters after the value");
  if (!ok) {
    if (error) *error = p.error;
    return std::nullopt;
  }
  return root;
}

void escape_into(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
    }
  }
  out.append(s.data() + run, s.size() - run);
}

}  // namespace tv::json
