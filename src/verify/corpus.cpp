#include "verify/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/montecarlo.hpp"
#include "util/number.hpp"
#include "verify/search_check.hpp"

namespace ftbesst::verify {

namespace {

constexpr const char* kResultMagic = "ftbesst-verify-result v1";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void append_series(std::string& out, const char* key,
                   const std::vector<double>& xs) {
  out += key;
  for (double x : xs) {
    out += ' ';
    util::append_double(out, x);
  }
  out += '\n';
}

/// First line where two texts diverge (1-based), for mismatch messages.
std::string first_divergence(const std::string& got,
                             const std::string& want) {
  std::istringstream gs(got), ws(want);
  std::string gl, wl;
  int line = 0;
  for (;;) {
    ++line;
    const bool g = static_cast<bool>(std::getline(gs, gl));
    const bool w = static_cast<bool>(std::getline(ws, wl));
    if (!g && !w) return "texts differ only in trailing bytes";
    if (!g || !w || gl != wl)
      return "line " + std::to_string(line) + ": got '" +
             (g ? gl : "<eof>") + "' want '" + (w ? wl : "<eof>") + "'";
  }
}

/// Every `<dir>/*.scenario`, sorted by name.
std::vector<std::filesystem::path> corpus_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  try {
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      if (entry.is_regular_file() &&
          entry.path().extension() == ".scenario")
        files.push_back(entry.path());
  } catch (const std::filesystem::filesystem_error& e) {
    throw std::invalid_argument("cannot read corpus directory '" + dir +
                                "': " + e.what());
  }
  if (files.empty())
    throw std::invalid_argument("corpus directory '" + dir +
                                "' holds no .scenario file");
  std::sort(files.begin(), files.end());
  return files;
}

/// The golden leg: result_to_text(s, 1) against the recorded `.expected`.
void check_golden(const Scenario& s, const std::filesystem::path& path,
                  DiffReport& report) {
  std::filesystem::path expected_path = path;
  expected_path.replace_extension(".expected");
  const std::string expected_name = expected_path.filename().string();
  if (!std::filesystem::exists(expected_path)) {
    add_failure(report, "golden",
                "missing " + expected_name +
                    " (run `ftbesst verify --corpus <dir> --update 1`)",
                s);
    return;
  }
  const std::string got = result_to_text(s, 1);
  ++report.golden_checks;
  const std::string want = read_file(expected_path);
  if (got != want)
    add_failure(report, "golden",
                "replay diverged from " + expected_name + ": " +
                    first_divergence(got, want),
                s);
}

}  // namespace

std::string result_to_text(const Scenario& s, unsigned threads) {
  BuiltScenario built = build(s);
  const core::EnsembleResult r =
      core::run_ensemble(built.app, built.arch, built.options,
                         static_cast<std::size_t>(s.trials), threads);
  std::string out(kResultMagic);
  out += '\n';
  out += "trials " + std::to_string(r.total.count) + '\n';
  out += "incomplete " + std::to_string(r.incomplete_trials) + '\n';
  out += "mean " + util::format_double(r.total.mean) + '\n';
  out += "stddev " + util::format_double(r.total.stddev) + '\n';
  out += "min " + util::format_double(r.total.min) + '\n';
  out += "max " + util::format_double(r.total.max) + '\n';
  out += "median " + util::format_double(r.total.median) + '\n';
  out += "mean_faults " + util::format_double(r.mean_faults) + '\n';
  out += "mean_rollbacks " + util::format_double(r.mean_rollbacks) + '\n';
  out += "mean_full_restarts " + util::format_double(r.mean_full_restarts) +
         '\n';
  append_series(out, "totals", r.totals);
  append_series(out, "timestep_end", r.mean_timestep_end);
  return out;
}

DiffReport replay_corpus(const std::string& dir) {
  DiffReport report;
  for (const std::filesystem::path& path : corpus_files(dir)) {
    const std::string name = path.stem().string();
    DiffReport entry;
    try {
      const Scenario s = Scenario::from_file(path.string());
      check_golden(s, path, entry);
      entry.merge(check_scenario(s));
      if (name.starts_with("search_"))
        entry.merge(check_search_vs_exhaustive(s));
    } catch (const std::exception& e) {
      add_failure(entry, "exception", e.what(), Scenario{});
    }
    entry.scenarios = 1;
    for (DiffFailure& f : entry.failures) f.entry = name;
    report.merge(entry);
  }
  return report;
}

int record_corpus(const std::string& dir) {
  int written = 0;
  for (const std::filesystem::path& path : corpus_files(dir)) {
    const Scenario s = Scenario::from_file(path.string());
    std::filesystem::path expected_path = path;
    expected_path.replace_extension(".expected");
    std::ofstream out(expected_path, std::ios::binary);
    if (!out)
      throw std::runtime_error("cannot write " + expected_path.string());
    out << result_to_text(s, 1);
    ++written;
  }
  return written;
}

}  // namespace ftbesst::verify
