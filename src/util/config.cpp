#include "util/config.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/number.hpp"

namespace ftbesst::util {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string strip_comment(const std::string& line) {
  const auto pos = line.find_first_of("#;");
  return pos == std::string::npos ? line : line.substr(0, pos);
}
}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream is(text);
  std::string line;
  std::string current;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string body = trim(strip_comment(line));
    if (body.empty()) continue;
    if (body.front() == '[') {
      if (body.back() != ']' || body.size() < 3)
        throw std::invalid_argument("config line " + std::to_string(lineno) +
                                    ": malformed section header");
      current = trim(body.substr(1, body.size() - 2));
      if (current.empty())
        throw std::invalid_argument("config line " + std::to_string(lineno) +
                                    ": empty section name");
      if (!cfg.sections_.count(current))
        cfg.section_order_.push_back(current);
      cfg.sections_[current];  // materialize
      continue;
    }
    const auto eq = body.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("config line " + std::to_string(lineno) +
                                  ": expected key = value");
    if (current.empty())
      throw std::invalid_argument("config line " + std::to_string(lineno) +
                                  ": key outside any [section]");
    const std::string key = trim(body.substr(0, eq));
    const std::string value = trim(body.substr(eq + 1));
    if (key.empty())
      throw std::invalid_argument("config line " + std::to_string(lineno) +
                                  ": empty key");
    Section& section = cfg.sections_[current];
    if (!section.values.count(key)) section.order.push_back(key);
    section.values[key] = value;
  }
  return cfg;
}

bool Config::has(const std::string& section,
                 const std::string& key) const noexcept {
  const auto it = sections_.find(section);
  return it != sections_.end() && it->second.values.count(key) > 0;
}

std::vector<std::string> Config::sections() const { return section_order_; }

std::vector<std::string> Config::keys(const std::string& section) const {
  const auto it = sections_.find(section);
  return it == sections_.end() ? std::vector<std::string>{}
                               : it->second.order;
}

std::optional<std::string> Config::get(const std::string& section,
                                       const std::string& key) const {
  const auto it = sections_.find(section);
  if (it == sections_.end()) return std::nullopt;
  const auto kit = it->second.values.find(key);
  if (kit == it->second.values.end()) return std::nullopt;
  return kit->second;
}

std::string Config::get_string(const std::string& section,
                               const std::string& key,
                               const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& section,
                             const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(section, key);
  return v ? parse_number<std::int64_t>(*v, "[" + section + "] " + key)
           : fallback;
}

double Config::get_double(const std::string& section, const std::string& key,
                          double fallback) const {
  const auto v = get(section, key);
  return v ? parse_number<double>(*v, "[" + section + "] " + key) : fallback;
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on")
    return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off")
    return false;
  throw std::invalid_argument("[" + section + "] " + key +
                              " expects a boolean, got '" + *v + "'");
}

}  // namespace ftbesst::util
