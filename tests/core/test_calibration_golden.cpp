// Golden pin of the Table II case-study calibration (the dse_sweep set-up).
//
// Calibrate lulesh_timestep, ckpt_l1 and ckpt_l2 on the Quartz-like
// testbed (FTI group 4 / node 2, eprs 5..25, ranks 8..1000, 10 samples per
// point, seed 2021) and develop the models in kAuto mode. Every output an
// analyst keeps must match tests/golden/table2_calibration.golden byte for
// byte:
//   - per kernel: the chosen method, the formula, and the exact bits of the
//     train/test/full MAPE and of the residual sigma;
//   - the symreg.evals and symreg.memo_hits counters of the three fits,
//     which pin the search itself (a changed memo key or breeding step
//     moves them even when the champion happens to survive);
//   - the bytes of every model file Registry::save_models writes.
// A mismatch leaves the produced text next to the temp directory's model
// files and names its path, so the diff can be inspected.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/testbed.hpp"
#include "core/workflow.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "svc/registry.hpp"

#ifndef FTBESST_GOLDEN_DIR
#error "FTBESST_GOLDEN_DIR must point at tests/golden"
#endif

namespace ftbesst::core {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void put_bits(std::ostream& os, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx %.17g",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)),
                v);
  os << name << ' ' << buf << '\n';
}

std::string calibrate_case_study(const std::filesystem::path& model_dir) {
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  apps::QuartzTestbed testbed({}, fti);
  apps::CampaignSpec spec;
  spec.eprs = {5, 10, 15, 20, 25};
  spec.ranks = {8, 64, 216, 512, 1000};
  spec.samples_per_point = 10;
  spec.seed = 2021;
  const std::vector<std::string> kernels{
      apps::kLuleshTimestep, apps::checkpoint_kernel(ft::Level::kL1),
      apps::checkpoint_kernel(ft::Level::kL2)};
  const auto calibration = apps::run_campaign(testbed, spec, kernels);

  model::FitOptions fit;
  fit.method = model::ModelMethod::kAuto;
  fit.seed = 2021;
  obs::enable(true);
  obs::reset();
  const ModelSuite suite = develop_models(calibration, fit);
  const obs::MetricsSnapshot snap = obs::scrape();
  obs::enable(false);
  obs::reset();

  std::ostringstream out;
  for (const KernelModelReport& r : suite.reports) {
    out << "kernel " << r.kernel << '\n'
        << "method " << model::to_string(r.fit.chosen) << '\n'
        << "formula " << r.fit.formula << '\n';
    put_bits(out, "train_mape", r.fit.train_mape);
    put_bits(out, "test_mape", r.fit.test_mape);
    put_bits(out, "full_mape", r.fit.full_mape);
    put_bits(out, "residual_sigma", r.fit.residual_sigma);
  }
  out << "symreg.evals " << snap.counter("symreg.evals") << '\n'
      << "symreg.memo_hits " << snap.counter("symreg.memo_hits") << '\n';

  auto topology = std::make_shared<net::TwoStageFatTree>(94, 32, 24);
  auto arch = std::make_shared<ArchBEO>("quartz", topology, net::CommParams{},
                                        36);
  arch->set_fti(fti);
  suite.bind_into(*arch);
  const svc::Registry registry{std::shared_ptr<const ArchBEO>(arch)};
  const std::size_t written = registry.save_models(model_dir.string());
  out << "model_files " << written << '\n';
  for (const std::string& kernel : kernels) {
    const std::string bytes = slurp(model_dir / (kernel + ".model"));
    out << "file " << kernel << ".model " << bytes.size() << '\n' << bytes;
  }
  return out.str();
}

TEST(CalibrationGolden, TableIICaseStudyIsByteStable) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ftbesst_golden_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string actual = calibrate_case_study(dir);
  const std::string expected =
      slurp(std::filesystem::path(FTBESST_GOLDEN_DIR) /
            "table2_calibration.golden");
  if (actual == expected) {
    std::filesystem::remove_all(dir);
    return;
  }
  const std::filesystem::path produced = dir / "table2_calibration.actual";
  std::ofstream(produced, std::ios::binary) << actual;
  ADD_FAILURE() << "calibration output differs from the golden file; "
                   "produced text kept at "
                << produced.string();
  EXPECT_EQ(expected, actual);
}

}  // namespace
}  // namespace ftbesst::core
