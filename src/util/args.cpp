#include "util/args.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/number.hpp"

namespace ftbesst::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    if (i + 1 >= argc)
      throw std::invalid_argument("flag --" + body + " needs a value");
    flags_[body] = argv[++i];
  }
}

bool ArgParser::has(const std::string& flag) const noexcept {
  return flags_.count(flag) > 0;
}

std::optional<std::string> ArgParser::get(const std::string& flag) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_string(const std::string& flag,
                                  const std::string& fallback) const {
  return get(flag).value_or(fallback);
}

std::int64_t ArgParser::get_int(const std::string& flag,
                                std::int64_t fallback) const {
  const auto v = get(flag);
  return v ? parse_number<std::int64_t>(*v, "flag --" + flag) : fallback;
}

double ArgParser::get_double(const std::string& flag, double fallback) const {
  const auto v = get(flag);
  return v ? parse_number<double>(*v, "flag --" + flag) : fallback;
}

std::vector<double> ArgParser::get_number_list(
    const std::string& flag, const std::string& fallback) const {
  std::vector<double> out;
  for (const std::string& entry : split_list(get_string(flag, fallback)))
    out.push_back(parse_number<double>(entry, "flag --" + flag));
  return out;
}

namespace {

// Plain Levenshtein distance, small inputs only (flag names).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      const std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diagonal + cost});
      diagonal = above;
    }
  }
  return row[b.size()];
}

}  // namespace

void ArgParser::expect_known(
    std::initializer_list<std::string_view> valid) const {
  for (const auto& [flag, value] : flags_) {
    bool known = false;
    for (std::string_view v : valid)
      if (flag == v) {
        known = true;
        break;
      }
    if (known) continue;

    std::string message = "unknown flag --" + flag;
    std::string_view closest;
    std::size_t best = 3;  // suggest only within edit distance 2
    for (std::string_view v : valid) {
      const std::size_t d = edit_distance(flag, v);
      if (d < best) {
        best = d;
        closest = v;
      }
    }
    if (!closest.empty())
      message += " (did you mean --" + std::string(closest) + "?)";
    message += "; valid flags:";
    for (std::string_view v : valid) message += " --" + std::string(v);
    throw std::invalid_argument(message);
  }
}

std::vector<std::string> ArgParser::split_list(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const auto comma = value.find(',', start);
    const auto end = comma == std::string::npos ? value.size() : comma;
    if (end > start) out.push_back(value.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace ftbesst::util
