#pragma once
// Tiny command-line argument parser for the ftbesst tool binaries:
// `--flag value` and `--flag=value` options plus positional arguments.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ftbesst::util {

class ArgParser {
 public:
  /// Parses argv (argv[0] skipped). Throws std::invalid_argument on a
  /// `--flag` with no value at the end of the line.
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] bool has(const std::string& flag) const noexcept;

  /// Typed getters; the non-optional forms return `fallback` when absent
  /// and throw std::invalid_argument, naming the flag, on a value that does
  /// not parse in full ("24x" is an error, not 24).
  [[nodiscard]] std::optional<std::string> get(const std::string& flag) const;
  [[nodiscard]] std::string get_string(const std::string& flag,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& flag,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& flag,
                                  double fallback) const;
  /// The comma-separated numbers of `flag` ("8,64"), or of `fallback`
  /// when the flag is absent. Each entry must parse in full; the error
  /// names the flag and the bad entry.
  [[nodiscard]] std::vector<double> get_number_list(
      const std::string& flag, const std::string& fallback) const;

  /// Reject any parsed flag outside `valid`: throws std::invalid_argument
  /// naming the offending flag and listing every valid one, with a "did
  /// you mean --X?" hint when a valid flag is within edit distance 2.
  /// Commands call this after construction so a typo like --trails fails
  /// loudly instead of silently falling back to a default.
  void expect_known(std::initializer_list<std::string_view> valid) const;

  /// Split a comma-separated value list ("a,b,c").
  [[nodiscard]] static std::vector<std::string> split_list(
      const std::string& value);

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ftbesst::util
