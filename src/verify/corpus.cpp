#include "verify/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "util/number.hpp"

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

std::string CorpusReport::summary() const {
  std::string out = "corpus: " + std::to_string(entries) + " entries, " +
                    std::to_string(replayed) + " replayed, " +
                    std::to_string(mismatches.size()) + " mismatch(es)\n";
  for (const CorpusMismatch& m : mismatches)
    out += "MISMATCH [" + m.name + "] " + m.detail + "\n";
  return out;
}

namespace {

std::vector<std::filesystem::path> corpus_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() &&
        entry.path().extension() == ".scenario")
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

CorpusReport replay_corpus(const std::string& dir,
                           bool check_thread_invariance) {
  CorpusReport report;
  for (const std::filesystem::path& path : corpus_files(dir)) {
    ++report.entries;
    const std::string name = path.stem().string();
    std::filesystem::path expected_path = path;
    expected_path.replace_extension(".expected");
    try {
      const Scenario s = Scenario::from_text(read_file(path));
      if (!std::filesystem::exists(expected_path)) {
        report.mismatches.push_back(
            {name, "missing " + expected_path.filename().string() +
                       " (run `ftbesst verify --corpus <dir> --update`)"});
        continue;
      }
      const std::string want = read_file(expected_path);
      const std::string serial = result_to_text(s, 1);
      ++report.replayed;
      if (serial != want) {
        report.mismatches.push_back(
            {name, "threads=1 replay diverged: " +
                       first_divergence(serial, want)});
        continue;
      }
      if (check_thread_invariance) {
        const std::string parallel = result_to_text(s, 4);
        if (parallel != want)
          report.mismatches.push_back(
              {name, "threads=4 replay diverged: " +
                         first_divergence(parallel, want)});
      }
    } catch (const std::exception& e) {
      report.mismatches.push_back({name, std::string("exception: ") +
                                             e.what()});
    }
  }
  return report;
}

namespace {

/// Canonical text form of one run_des prediction. Mirrors result_to_text's
/// shortest-round-trip formatting; sim_events is deliberately excluded
/// (it is a diagnostic that folding shrinks, see core::RunResult).
std::string des_result_to_text(const core::RunResult& r) {
  std::string out = "ftbesst-verify-des-result v1\n";
  out += "completed " + std::to_string(r.completed ? 1 : 0) + '\n';
  out += "total " + util::format_double(r.total_seconds) + '\n';
  out += "instructions " + std::to_string(r.instructions_executed) + '\n';
  out += "faults " + std::to_string(r.faults) + '\n';
  out += "rollbacks " + std::to_string(r.rollbacks) + '\n';
  out += "full_restarts " + std::to_string(r.full_restarts) + '\n';
  append_series(out, "timestep_end", r.timestep_end_times);
  out += "checkpoints";
  for (const int t : r.checkpoint_timesteps)
    out += ' ' + std::to_string(t);
  out += '\n';
  return out;
}

}  // namespace

CorpusReport replay_corpus_folded(const std::string& dir,
                                  std::int64_t max_unfolded_ranks) {
  CorpusReport report;
  for (const std::filesystem::path& path : corpus_files(dir)) {
    ++report.entries;
    const std::string name = path.stem().string();
    try {
      Scenario clean = Scenario::from_text(read_file(path));
      // run_des prices single deterministic executions; strip the
      // stochastic ingredients exactly as the differential checker does.
      clean.inject_faults = false;
      clean.monte_carlo = false;
      clean.noise_sigma = 0.0;
      BuiltScenario built = build(clean);
      built.options.fold_symmetry = true;
      const std::string folded =
          des_result_to_text(core::run_des(built.app, built.arch,
                                           built.options));
      ++report.replayed;
      if (clean.ranks > max_unfolded_ranks) continue;  // folded-only tier
      built.options.fold_symmetry = false;
      const std::string unfolded =
          des_result_to_text(core::run_des(built.app, built.arch,
                                           built.options));
      if (folded != unfolded)
        report.mismatches.push_back(
            {name, "folded-vs-unfolded replay diverged: " +
                       first_divergence(folded, unfolded)});
    } catch (const std::exception& e) {
      report.mismatches.push_back({name, std::string("exception: ") +
                                             e.what()});
    }
  }
  return report;
}

int record_corpus(const std::string& dir) {
  int written = 0;
  for (const std::filesystem::path& path : corpus_files(dir)) {
    const Scenario s = Scenario::from_text(read_file(path));
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
