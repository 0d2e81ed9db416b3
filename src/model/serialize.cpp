#include "model/serialize.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "model/feature_model.hpp"
#include "model/powerlaw.hpp"
#include "model/symreg.hpp"
#include "util/number.hpp"

namespace ftbesst::model {

namespace {

constexpr const char* kMagic = "ftbesst-model v1";

// Counts in a model stream come straight from untrusted text; cap them
// before sizing any container so a forged header cannot demand a
// multi-gigabyte allocation. Far above anything a real calibration emits.
constexpr std::size_t kMaxSerializedTerms = 4096;
constexpr std::size_t kMaxFeatureParams = 64;

// Every numeric field must survive a text round-trip exactly; NaN and
// infinity would serialize, reload, and then silently poison every
// downstream prediction, so save refuses them here (and load, through
// util::parse_number, never reads them).
double checked_finite(double v, const char* what) {
  if (!std::isfinite(v))
    throw std::invalid_argument(std::string("non-finite ") + what +
                                " in model serialization");
  return v;
}

void save_model_body(std::ostream& os, const PerfModel& model) {
  os << std::setprecision(17);
  if (const auto* noisy = dynamic_cast<const NoisyModel*>(&model)) {
    os << "noisy " << checked_finite(noisy->log_sigma(), "noisy log_sigma")
       << '\n';
    save_model_body(os, *noisy->base());
    return;
  }
  if (const auto* constant = dynamic_cast<const ConstantModel*>(&model)) {
    os << "constant "
       << checked_finite(constant->predict(std::span<const double>{}),
                         "constant value")
       << '\n';
    return;
  }
  if (const auto* pl = dynamic_cast<const PowerLawModel*>(&model)) {
    os << "powerlaw " << checked_finite(pl->coefficient(), "powerlaw coefficient")
       << ' ' << pl->exponents().size();
    for (double e : pl->exponents())
      os << ' ' << checked_finite(e, "powerlaw exponent");
    os << '\n';
    return;
  }
  if (const auto* expr = dynamic_cast<const ExprModel*>(&model)) {
    os << "exprmodel " << checked_finite(expr->scale(), "exprmodel scale")
       << ' ' << checked_finite(expr->offset(), "exprmodel offset") << ' '
       << expr->param_names().size();
    for (const auto& name : expr->param_names()) os << ' ' << name;
    os << '\n' << expr->expr().to_sexpr() << '\n';
    return;
  }
  throw std::invalid_argument("unsupported model type for serialization: " +
                              model.describe());
}

std::string read_line(std::istream& is) {
  std::string line;
  if (!std::getline(is, line))
    throw std::invalid_argument("unexpected end of model stream");
  return line;
}

/// One whitespace-separated line of a model stream. Every field read
/// names itself, and a line must be read to its end: a leftover token is
/// an error, not ignored.
class LineReader {
 public:
  explicit LineReader(const std::string& line) : ls_(line) {}

  std::string word(const char* what) {
    std::string w;
    if (!(ls_ >> w))
      throw std::invalid_argument(std::string("model line lacks its ") + what);
    return w;
  }
  template <typename T>
  T number(const char* what) {
    return util::parse_number<T>(word(what), what);
  }
  void finish() {
    std::string extra;
    if (ls_ >> extra)
      throw std::invalid_argument("unexpected '" + extra +
                                  "' at the end of a model line");
  }

 private:
  std::istringstream ls_;
};

PerfModelPtr load_model_body(std::istream& is) {
  LineReader line(read_line(is));
  const std::string kind = line.word("model kind");
  if (kind == "noisy") {
    const double sigma = line.number<double>("noisy log_sigma");
    line.finish();
    PerfModelPtr base = load_model_body(is);
    return std::make_shared<NoisyModel>(std::move(base), sigma);
  }
  if (kind == "constant") {
    const double value = line.number<double>("constant value");
    line.finish();
    return std::make_shared<ConstantModel>(value);
  }
  if (kind == "powerlaw") {
    const double coeff = line.number<double>("powerlaw coefficient");
    const auto n = line.number<std::size_t>("powerlaw exponent count");
    if (n > kMaxSerializedTerms)
      throw std::invalid_argument("powerlaw exponent count too large");
    std::vector<double> exponents(n);
    for (auto& e : exponents) e = line.number<double>("powerlaw exponent");
    line.finish();
    return std::make_shared<PowerLawModel>(coeff, std::move(exponents));
  }
  if (kind == "exprmodel") {
    const double scale = line.number<double>("exprmodel scale");
    const double offset = line.number<double>("exprmodel offset");
    const auto n = line.number<std::size_t>("exprmodel parameter count");
    if (n > kMaxSerializedTerms)
      throw std::invalid_argument("exprmodel parameter count too large");
    std::vector<std::string> names(n);
    for (auto& name : names) name = line.word("exprmodel parameter name");
    line.finish();
    const std::string sexpr = read_line(is);
    return std::make_shared<ExprModel>(Expr::from_sexpr(sexpr), scale, offset,
                                       std::move(names));
  }
  if (kind == "featuremodel") {
    const std::string lib_kind = line.word("featuremodel library");
    const auto num_params = line.number<std::size_t>("featuremodel params");
    const auto num_weights = line.number<std::size_t>("featuremodel weights");
    line.finish();
    if (lib_kind != "polynomial")
      throw std::invalid_argument("unknown featuremodel library '" +
                                  lib_kind + "'");
    if (num_params > kMaxFeatureParams ||
        num_weights > kMaxSerializedTerms)
      throw std::invalid_argument("featuremodel counts too large");
    auto lib = FeatureLibrary::polynomial(num_params);
    if (lib.size() != num_weights)
      throw std::invalid_argument("feature count mismatch on load");
    LineReader weights_line(read_line(is));
    std::vector<double> weights(num_weights);
    for (auto& w : weights) w = weights_line.number<double>("feature weight");
    weights_line.finish();
    return std::make_shared<FeatureModel>(std::move(lib), std::move(weights));
  }
  throw std::invalid_argument("unknown model kind '" + kind + "'");
}

/// FeatureModel needs its library tag; handled out-of-band from the
/// dynamic_cast chain above so the chain stays exception-free for the
/// supported types.
bool try_save_feature_model(std::ostream& os, const PerfModel& model) {
  const auto* feat = dynamic_cast<const FeatureModel*>(&model);
  if (!feat) return false;
  // Reconstruct the tag via a second dynamic property: FeatureModel keeps
  // its library; we require it to be tagged.
  const std::string& tag = feat->library_tag();
  if (tag.empty())
    throw std::invalid_argument(
        "cannot serialize a feature model with a hand-built library");
  os << std::setprecision(17);
  os << "featuremodel " << tag << ' ' << feat->weights().size() << '\n';
  for (std::size_t i = 0; i < feat->weights().size(); ++i)
    os << (i ? " " : "") << checked_finite(feat->weights()[i], "feature weight");
  os << '\n';
  return true;
}

}  // namespace

void save_model(std::ostream& os, const PerfModel& model) {
  os << kMagic << '\n';
  // NoisyModel over a FeatureModel must recurse through the noisy header
  // first; handle that explicitly.
  if (const auto* noisy = dynamic_cast<const NoisyModel*>(&model)) {
    os << std::setprecision(17) << "noisy "
       << checked_finite(noisy->log_sigma(), "noisy log_sigma") << '\n';
    if (!try_save_feature_model(os, *noisy->base()))
      save_model_body(os, *noisy->base());
    return;
  }
  if (try_save_feature_model(os, model)) return;
  save_model_body(os, model);
}

std::string model_to_string(const PerfModel& model) {
  std::ostringstream os;
  save_model(os, model);
  return os.str();
}

PerfModelPtr load_model(std::istream& is) {
  const std::string magic = read_line(is);
  if (magic != kMagic)
    throw std::invalid_argument("not an ftbesst model stream: '" + magic +
                                "'");
  return load_model_body(is);
}

PerfModelPtr model_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_model(is);
}

void save_dataset(std::ostream& os, const Dataset& data) {
  os << std::setprecision(17);
  for (std::size_t d = 0; d < data.num_params(); ++d)
    os << data.param_names()[d] << ',';
  os << "sample\n";
  for (const Row& row : data.rows())
    for (double sample : row.samples) {
      for (double p : row.params)
        os << checked_finite(p, "dataset parameter") << ',';
      os << checked_finite(sample, "dataset sample") << '\n';
    }
}

Dataset load_dataset(std::istream& is) {
  std::string header;
  if (!std::getline(is, header))
    throw std::invalid_argument("empty dataset stream");
  std::vector<std::string> names;
  std::istringstream hs(header);
  std::string col;
  while (std::getline(hs, col, ',')) names.push_back(col);
  if (names.empty() || names.back() != "sample")
    throw std::invalid_argument("dataset header must end with 'sample'");
  names.pop_back();
  Dataset data(names);

  // Accumulate consecutive rows with identical parameters into one row.
  std::vector<double> current_params;
  std::vector<double> current_samples;
  auto flush = [&]() {
    if (!current_samples.empty())
      data.add_row(current_params, current_samples);
    current_samples.clear();
  };
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::vector<double> values;
    std::string cell;
    while (std::getline(ls, cell, ','))
      values.push_back(util::parse_number<double>(cell, "dataset cell"));
    if (values.size() != names.size() + 1)
      throw std::invalid_argument("dataset row width mismatch");
    std::vector<double> params(values.begin(), values.end() - 1);
    if (params != current_params) {
      flush();
      current_params = std::move(params);
    }
    current_samples.push_back(values.back());
  }
  flush();
  return data;
}

}  // namespace ftbesst::model
