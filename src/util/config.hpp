#pragma once
// Minimal INI-style configuration reader for experiment descriptions:
//
//   # comment
//   [experiment]
//   app = lulesh
//   epr = 15
//   [plan]
//   L1 = 40
//
// Sections of key=value pairs; '#' and ';' start comments; whitespace is
// trimmed. Duplicate keys within a section keep the last value. Used by
// `ftbesst run-experiment` so a DSE study is a reviewable text artifact.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ftbesst::util {

class Config {
 public:
  /// Parse from text. Throws std::invalid_argument with a line number on
  /// malformed input (key outside a section, missing '=', bad section).
  [[nodiscard]] static Config parse(const std::string& text);

  [[nodiscard]] bool has(const std::string& section,
                         const std::string& key) const noexcept;
  [[nodiscard]] std::vector<std::string> sections() const;
  /// Keys of a section in file order (empty if the section is absent).
  [[nodiscard]] std::vector<std::string> keys(
      const std::string& section) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& section,
                                               const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& section,
                                       const std::string& key,
                                       const std::string& fallback) const;
  /// Typed getters; throw std::invalid_argument on unparseable values.
  [[nodiscard]] std::int64_t get_int(const std::string& section,
                                     const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& section,
                                  const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& section,
                              const std::string& key, bool fallback) const;

 private:
  struct Section {
    std::vector<std::string> order;
    std::map<std::string, std::string> values;
  };
  std::vector<std::string> section_order_;
  std::map<std::string, Section> sections_;
};

}  // namespace ftbesst::util
