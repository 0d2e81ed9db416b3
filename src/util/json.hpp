#pragma once
// Minimal JSON value type: the one JSON encoder and parser of FT-BESST.
// The prediction service's wire protocol, the bench reports, `ftbesst
// search`'s request and the observability exports (metrics.json,
// trace.json) are all built from it.
//
// Two properties matter more than generality here:
//
//   1. *Canonical dumps.* Objects store their members in a std::map, so
//      dump() always emits keys in sorted order, with no whitespace, and
//      numbers are formatted with util::append_double — the shortest
//      decimal that round-trips the exact binary64 value.
//      parse(dump(v)) == v and dump(parse(dump(v))) == dump(v), which is
//      what lets the service content-address requests: the canonical dump
//      of a request (minus volatile fields) IS its cache key, independent
//      of how the client spelled numbers, ordered keys, or spaced the text.
//
//   2. *Hostile-input safety.* parse() is fed bytes straight off a socket;
//      it throws std::invalid_argument (never crashes, never recurses
//      unboundedly — nesting is capped) on malformed input.
//
// Supported: null, booleans, finite doubles, strings (with escape and
// \uXXXX handling, non-surrogate BMP only), arrays, objects. NaN/Infinity
// are rejected on both parse and dump, matching strict JSON.
//
// Depends only on the standard library and util/number.hpp, so it links
// below ftbesst_obs (target ftbesst_json).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ftbesst::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d);  // throws std::invalid_argument on non-finite values
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  /// Parse strict JSON; throws std::invalid_argument with a byte offset on
  /// malformed input. Nesting beyond `max_depth` is rejected.
  [[nodiscard]] static Json parse(std::string_view text, int max_depth = 64);

  /// Canonical serialization: sorted object keys, no whitespace, shortest
  /// round-trip number form.
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<JsonObject>(value_);
  }

  /// Checked accessors; throw std::invalid_argument on a type mismatch
  /// (client requests are untrusted, so "wrong type" must be a clean error).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] JsonObject& as_object();

  /// Object member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  // Convenience typed getters for objects, with fallbacks for optional
  // request fields. The `_or` forms throw only on a type mismatch.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::int64_t int_or(std::string_view key,
                                    std::int64_t fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace ftbesst::util
