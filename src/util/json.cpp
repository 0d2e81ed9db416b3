#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "util/number.hpp"

namespace ftbesst::util {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::invalid_argument(std::string("json: value is not ") + want);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d))
    throw std::invalid_argument("json: cannot serialize non-finite number");
  append_double(out, d);
}

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > max_depth_) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json(string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return Json(number());
    }
  }

  Json object(int depth) {
    expect('{');
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out[std::move(key)] = value(depth + 1);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(out));
    }
  }

  Json array(int depth) {
    expect('[');
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    while (true) {
      out.push_back(value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(out));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': out += unicode_escape(); break;
        default: fail("bad escape character");
      }
    }
  }

  std::string unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    if (cp >= 0xd800 && cp <= 0xdfff)
      fail("surrogate \\u escapes are not supported");
    // Encode the BMP code point as UTF-8.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // JSON forbids leading zeros ("01"), which the number codec accepts.
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9')
      fail("bad number (leading zero)");
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')
        ++pos_;
      else
        break;
    }
    const std::optional<double> out =
        try_parse_number<double>(text_.substr(start, pos_ - start));
    if (!out) {
      pos_ = start;
      fail("bad number");
    }
    return *out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

}  // namespace

Json::Json(double d) : value_(d) {
  if (!std::isfinite(d))
    throw std::invalid_argument("json: non-finite number");
}

Json Json::parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

void Json::dump_to(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_number()) {
    append_number(out, std::get<double>(value_));
  } else if (is_string()) {
    append_escaped(out, std::get<std::string>(value_));
  } else if (is_array()) {
    out += '[';
    bool first = true;
    for (const Json& v : std::get<JsonArray>(value_)) {
      if (!first) out += ',';
      first = false;
      v.dump_to(out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, v] : std::get<JsonObject>(value_)) {
      if (!first) out += ',';
      first = false;
      append_escaped(out, key);
      out += ':';
      v.dump_to(out);
    }
    out += '}';
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

bool Json::as_bool() const {
  if (!is_bool()) type_error("a boolean");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_error("a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<JsonObject>(value_);
}

JsonArray& Json::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<JsonArray>(value_);
}

JsonObject& Json::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<JsonObject>(value_);
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<JsonObject>(value_);
  const auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  if (!v || v->is_null()) return fallback;
  if (!v->is_number())
    throw std::invalid_argument("json: field '" + std::string(key) +
                                "' must be a number");
  return v->as_number();
}

std::int64_t Json::int_or(std::string_view key, std::int64_t fallback) const {
  const double d = number_or(key, static_cast<double>(fallback));
  // Casting an out-of-range double to int64 is undefined behavior, so the
  // range check must come first. 2^63 is exactly representable as a
  // double; the open upper bound keeps the cast below in range.
  constexpr double kInt64Bound = 9223372036854775808.0;  // 2^63
  if (!(d >= -kInt64Bound && d < kInt64Bound))
    throw std::invalid_argument("json: field '" + std::string(key) +
                                "' is out of integer range");
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d)
    throw std::invalid_argument("json: field '" + std::string(key) +
                                "' must be an integer");
  return i;
}

std::string Json::string_or(std::string_view key,
                            std::string_view fallback) const {
  const Json* v = find(key);
  if (!v || v->is_null()) return std::string(fallback);
  if (!v->is_string())
    throw std::invalid_argument("json: field '" + std::string(key) +
                                "' must be a string");
  return v->as_string();
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  if (!v || v->is_null()) return fallback;
  if (!v->is_bool())
    throw std::invalid_argument("json: field '" + std::string(key) +
                                "' must be a boolean");
  return v->as_bool();
}

}  // namespace ftbesst::util
