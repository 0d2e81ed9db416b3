#include "verify/fuzz.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "core/workflow.hpp"
#include "ft/fault_log.hpp"
#include "model/feature_model.hpp"
#include "model/serialize.hpp"
#include "svc/json.hpp"
#include "svc/wire.hpp"
#include "util/config.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"
#include "verify/scenario.hpp"

namespace ftbesst::verify {

namespace {

/// Small frame cap for fuzzing so the oversize-rejection path is reachable
/// with tiny inputs and no mutation can demand a large allocation.
constexpr std::uint32_t kFuzzFrameCap = 1u << 16;

std::string_view as_text(const std::uint8_t* data, std::size_t size) {
  return {reinterpret_cast<const char*>(data), size};
}

[[noreturn]] void invariant_violated(const char* target, const char* what) {
  throw std::logic_error(std::string(target) + ": " + what);
}

}  // namespace

// --- single-input entries -------------------------------------------------

bool fuzz_json_one(const std::uint8_t* data, std::size_t size) {
  svc::Json value;
  try {
    value = svc::Json::parse(as_text(data, size));
  } catch (const std::invalid_argument&) {
    return false;
  }
  const std::string canonical = value.dump();
  svc::Json reparsed;
  try {
    reparsed = svc::Json::parse(canonical);
  } catch (const std::invalid_argument&) {
    invariant_violated("json", "canonical dump failed to re-parse");
  }
  if (!(reparsed == value))
    invariant_violated("json", "parse(dump(v)) != v");
  if (reparsed.dump() != canonical)
    invariant_violated("json", "dump is not a fixpoint");
  return true;
}

bool fuzz_wire_one(const std::uint8_t* data, std::size_t size) {
  const std::string input(as_text(data, size));

  // Whole-buffer feed: drain every complete frame at once.
  std::vector<std::string> whole_frames;
  std::string whole_rest = input;
  bool whole_threw = false;
  try {
    std::string frame;
    while (svc::extract_frame(whole_rest, frame, kFuzzFrameCap))
      whole_frames.push_back(frame);
  } catch (const std::invalid_argument&) {
    whole_threw = true;
  }

  // Byte-at-a-time feed: the codec must be insensitive to how the stream
  // fragments across reads.
  std::vector<std::string> inc_frames;
  std::string inc_buffer;
  bool inc_threw = false;
  try {
    std::string frame;
    for (char c : input) {
      inc_buffer.push_back(c);
      while (svc::extract_frame(inc_buffer, frame, kFuzzFrameCap))
        inc_frames.push_back(frame);
    }
  } catch (const std::invalid_argument&) {
    inc_threw = true;
  }

  if (whole_threw != inc_threw)
    invariant_violated("wire", "oversize rejection depends on fragmentation");
  if (whole_frames != inc_frames)
    invariant_violated("wire", "frames depend on read fragmentation");
  if (!whole_threw && whole_rest != inc_buffer)
    invariant_violated("wire", "residual bytes depend on fragmentation");
  return !whole_frames.empty();
}

bool fuzz_plan_one(const std::uint8_t* data, std::size_t size) {
  const std::string text(as_text(data, size));
  std::vector<ft::PlanEntry> plan;
  try {
    plan = core::parse_plan(text);
  } catch (const std::invalid_argument&) {
    return false;
  }
  try {
    core::validate_plan(plan);
  } catch (const std::invalid_argument&) {
    invariant_violated("plan", "parse_plan output fails validate_plan");
  }
  const std::string canonical = plan_to_string(plan);
  std::vector<ft::PlanEntry> reparsed;
  try {
    reparsed = canonical.empty() ? std::vector<ft::PlanEntry>{}
                                 : core::parse_plan(canonical);
  } catch (const std::invalid_argument&) {
    invariant_violated("plan", "canonical spelling failed to re-parse");
  }
  if (reparsed.size() != plan.size())
    invariant_violated("plan", "round-trip changed entry count");
  for (std::size_t i = 0; i < plan.size(); ++i)
    if (reparsed[i].level != plan[i].level ||
        reparsed[i].period != plan[i].period ||
        reparsed[i].async != plan[i].async)
      invariant_violated("plan", "round-trip changed an entry");
  return true;
}

bool fuzz_model_one(const std::uint8_t* data, std::size_t size) {
  model::PerfModelPtr m;
  try {
    m = model::model_from_string(std::string(as_text(data, size)));
  } catch (const std::invalid_argument&) {
    return false;
  }
  std::string first;
  try {
    first = model::model_to_string(*m);
  } catch (const std::invalid_argument&) {
    invariant_violated("model", "loaded model failed to re-serialize");
  }
  model::PerfModelPtr again;
  try {
    again = model::model_from_string(first);
  } catch (const std::invalid_argument&) {
    invariant_violated("model", "serialized form failed to re-load");
  }
  if (model::model_to_string(*again) != first)
    invariant_violated("model", "serialization is not a fixpoint");
  return true;
}

bool fuzz_config_one(const std::uint8_t* data, std::size_t size) {
  util::Config cfg;
  try {
    cfg = util::Config::parse(std::string(as_text(data, size)));
  } catch (const std::invalid_argument&) {
    return false;
  }
  // Every value reads through each typed getter as a value or a clean
  // rejection, and a number the reader took survives its shortest form.
  for (const std::string& section : cfg.sections())
    for (const std::string& key : cfg.keys(section)) {
      try {
        (void)cfg.get_int(section, key, 0);
      } catch (const std::invalid_argument&) {
      }
      try {
        (void)cfg.get_bool(section, key, false);
      } catch (const std::invalid_argument&) {
      }
      double v = 0.0;
      try {
        v = cfg.get_double(section, key, 0.0);
      } catch (const std::invalid_argument&) {
        continue;
      }
      const std::optional<double> back =
          util::try_parse_number<double>(util::format_double(v));
      if (!back || std::bit_cast<std::uint64_t>(*back) !=
                       std::bit_cast<std::uint64_t>(v))
        invariant_violated("config", "a number does not round-trip");
    }
  return true;
}

bool fuzz_scenario_one(const std::uint8_t* data, std::size_t size) {
  std::string canonical;
  try {
    canonical = Scenario::from_text(std::string(as_text(data, size))).to_text();
  } catch (const std::invalid_argument&) {
    return false;
  }
  std::string again;
  try {
    again = Scenario::from_text(canonical).to_text();
  } catch (const std::invalid_argument&) {
    invariant_violated("scenario", "canonical text failed to re-parse");
  }
  if (again != canonical)
    invariant_violated("scenario", "to_text is not a fixpoint");
  return true;
}

bool fuzz_faultlog_one(const std::uint8_t* data, std::size_t size) {
  std::string canonical;
  try {
    canonical = ft::FaultLog::from_text(as_text(data, size)).to_text();
  } catch (const std::invalid_argument&) {
    return false;
  }
  std::string again;
  try {
    again = ft::FaultLog::from_text(canonical).to_text();
  } catch (const std::invalid_argument&) {
    invariant_violated("faultlog", "written log failed to re-read");
  }
  if (again != canonical)
    invariant_violated("faultlog", "to_text is not a fixpoint");
  return true;
}

// --- grammar-based generators --------------------------------------------

namespace {

void gen_json_value(util::Rng& rng, int depth, std::string& out) {
  const std::uint64_t kind =
      depth >= 4 ? rng.uniform_int(4) : rng.uniform_int(6);
  switch (kind) {
    case 0:
      out += "null";
      break;
    case 1:
      out += rng.uniform() < 0.5 ? "true" : "false";
      break;
    case 2: {
      switch (rng.uniform_int(4)) {
        case 0: out += std::to_string(static_cast<std::int64_t>(
                    rng.uniform_int(1u << 20)) - (1 << 19)); break;
        case 1: out += util::format_double(rng.uniform(-1e6, 1e6)); break;
        case 2: out += util::format_double(rng.uniform(0.0, 1.0)); break;
        default: out += std::to_string(rng.uniform_int(100)) + "e" +
                        std::to_string(static_cast<int>(rng.uniform_int(17)) -
                                       8); break;
      }
      break;
    }
    case 3: {
      out += '"';
      const std::uint64_t len = rng.uniform_int(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        switch (rng.uniform_int(8)) {
          case 0: out += "\\\""; break;
          case 1: out += "\\\\"; break;
          case 2: out += "\\n"; break;
          case 3: {
            out += "\\u00";
            const char* hex = "0123456789abcdef";
            out += hex[rng.uniform_int(16)];
            out += hex[rng.uniform_int(16)];
            break;
          }
          default:
            out += static_cast<char>('a' + rng.uniform_int(26));
            break;
        }
      }
      out += '"';
      break;
    }
    case 4: {
      out += '[';
      const std::uint64_t n = rng.uniform_int(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i) out += ',';
        if (rng.uniform() < 0.2) out += ' ';
        gen_json_value(rng, depth + 1, out);
      }
      out += ']';
      break;
    }
    default: {
      out += '{';
      const std::uint64_t n = rng.uniform_int(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i) out += ',';
        out += '"';
        out += static_cast<char>('a' + rng.uniform_int(26));
        out += "\":";
        if (rng.uniform() < 0.2) out += ' ';
        gen_json_value(rng, depth + 1, out);
      }
      out += '}';
      break;
    }
  }
}

std::string gen_json(util::Rng& rng) {
  std::string out;
  gen_json_value(rng, 0, out);
  return out;
}

std::string gen_wire(util::Rng& rng) {
  std::string out;
  const std::uint64_t frames = rng.uniform_int(4);
  for (std::uint64_t f = 0; f < frames; ++f) {
    const std::uint64_t len = rng.uniform_int(64);
    unsigned char header[4];
    if (rng.uniform() < 0.1) {
      // Forged oversize / mismatched length prefix.
      svc::encode_length(
          static_cast<std::uint32_t>(rng.uniform_int(0xffffffffull)), header);
    } else {
      svc::encode_length(static_cast<std::uint32_t>(len), header);
    }
    out.append(reinterpret_cast<const char*>(header), 4);
    for (std::uint64_t i = 0; i < len; ++i)
      out += static_cast<char>(rng.uniform_int(256));
  }
  // Sometimes leave a dangling partial frame.
  if (rng.uniform() < 0.3) {
    const std::uint64_t tail = rng.uniform_int(6);
    for (std::uint64_t i = 0; i < tail; ++i)
      out += static_cast<char>(rng.uniform_int(256));
  }
  return out;
}

std::string gen_plan(util::Rng& rng) {
  std::string out;
  const std::uint64_t entries = rng.uniform_int(5);
  for (std::uint64_t i = 0; i < entries; ++i) {
    if (i) out += ',';
    if (rng.uniform() < 0.1) {
      out += "junk";
      continue;
    }
    out += 'L';
    out += static_cast<char>('0' + rng.uniform_int(7));  // 0-6: some invalid
    out += ':';
    out += std::to_string(static_cast<std::int64_t>(rng.uniform_int(200)) -
                          10);
    if (rng.uniform() < 0.3) out += 'a';
  }
  return out;
}

void gen_sexpr(util::Rng& rng, int depth, std::string& out) {
  const std::uint64_t kind =
      depth >= 5 ? rng.uniform_int(2) : rng.uniform_int(6);
  switch (kind) {
    case 0:
      out += "(const " + util::format_double(rng.uniform(-10.0, 10.0)) + ")";
      break;
    case 1:
      out += "(var " + std::to_string(rng.uniform_int(4)) + ")";
      break;
    case 2:
    case 3: {
      out += rng.uniform() < 0.5 ? "(log " : "(sqrt ";
      gen_sexpr(rng, depth + 1, out);
      out += ')';
      break;
    }
    default: {
      static const char* ops[] = {"add", "sub", "mul", "div"};
      out += '(';
      out += ops[rng.uniform_int(4)];
      out += ' ';
      gen_sexpr(rng, depth + 1, out);
      out += ' ';
      gen_sexpr(rng, depth + 1, out);
      out += ')';
      break;
    }
  }
}

std::string gen_model(util::Rng& rng) {
  std::string out = "ftbesst-model v1\n";
  if (rng.uniform() < 0.25) out += "noisy " + util::format_double(
                                        rng.uniform(0.0, 0.5)) + "\n";
  switch (rng.uniform_int(4)) {
    case 0:
      out += "constant " + util::format_double(rng.uniform(0.0, 100.0)) + "\n";
      break;
    case 1: {
      const std::uint64_t n = rng.uniform_int(4);
      out += "powerlaw " + util::format_double(rng.uniform(0.1, 10.0)) + " " +
             std::to_string(n);
      for (std::uint64_t i = 0; i < n; ++i)
        out += " " + util::format_double(rng.uniform(-2.0, 2.0));
      out += "\n";
      break;
    }
    case 2: {
      const std::uint64_t n = rng.uniform_int(3);
      out += "exprmodel " + util::format_double(rng.uniform(0.1, 10.0)) + " " +
             util::format_double(rng.uniform(-1.0, 1.0)) + " " +
             std::to_string(n);
      for (std::uint64_t i = 0; i < n; ++i)
        out += " p" + std::to_string(i);
      out += "\n";
      gen_sexpr(rng, 0, out);
      out += "\n";
      break;
    }
    default: {
      const std::uint64_t params = 1 + rng.uniform_int(3);
      const std::size_t weights =
          model::FeatureLibrary::polynomial(params).size();
      out += "featuremodel polynomial " + std::to_string(params) + " " +
             std::to_string(weights) + "\n";
      for (std::size_t i = 0; i < weights; ++i) {
        if (i) out += ' ';
        out += util::format_double(rng.uniform(-5.0, 5.0));
      }
      out += "\n";
      break;
    }
  }
  return out;
}

/// A number spelling, usually well-formed, sometimes one the codec must
/// reject.
std::string gen_number(util::Rng& rng) {
  static const char* const odd[] = {"3x", "0x10", "nan", "inf", "+1", " 1",
                                    "2.5e", "1e400", "", "-0",
                                    "99999999999999999999"};
  switch (rng.uniform_int(4)) {
    case 0: return std::to_string(rng.uniform_int(1000));
    case 1: return util::format_double(rng.uniform(-1e6, 1e6));
    case 2: return util::format_double(rng.uniform(0.0, 1.0));
    default: return odd[rng.uniform_int(std::size(odd))];
  }
}

std::string gen_config(util::Rng& rng) {
  std::string out;
  const std::uint64_t sections = 1 + rng.uniform_int(3);
  for (std::uint64_t s = 0; s < sections; ++s) {
    out += "[s" + std::to_string(s) + "]\n";
    const std::uint64_t keys = rng.uniform_int(4);
    for (std::uint64_t k = 0; k < keys; ++k) {
      out += "k" + std::to_string(k) + " = ";
      out += rng.uniform() < 0.2 ? (rng.uniform() < 0.5 ? "true" : "off")
                                 : gen_number(rng);
      if (rng.uniform() < 0.2) out += "  # note";
      out += '\n';
    }
  }
  return out;
}

std::string gen_scenario(util::Rng& rng) {
  std::string out = ScenarioGenerator(rng()).next().to_text();
  if (rng.uniform() < 0.3) out += "kernel_cost " + gen_number(rng) + '\n';
  return out;
}

std::string gen_faultlog(util::Rng& rng) {
  ft::FaultLog log;
  const std::uint64_t trials = rng.uniform_int(4);  // 0 = a v1 log
  log.set_trials(trials);
  const std::uint64_t records = rng.uniform_int(5);
  for (std::uint64_t i = 0; i < records; ++i) {
    ft::FaultRecord r;
    r.trial = static_cast<std::int64_t>(rng.uniform_int(trials ? trials : 9));
    r.time = rng.uniform(0.0, 1e4);
    r.node = static_cast<std::int64_t>(rng.uniform_int(64));
    r.kind = static_cast<ft::FailureKind>(rng.uniform_int(3));
    r.detect_after = r.kind == ft::FailureKind::kSilentCorruption
                         ? rng.uniform(0.0, 10.0)
                         : 0.0;
    r.recovery_level = static_cast<int>(rng.uniform_int(5));
    r.lost_work_seconds = rng.uniform(0.0, 100.0);
    r.restart_cost_seconds = rng.uniform(0.0, 5.0);
    log.add(r);
  }
  std::string out = log.to_text();
  if (rng.uniform() < 0.3)
    out += "0 " + gen_number(rng) + " 1 crash 0 1 0 0\n";
  return out;
}

void mutate(util::Rng& rng, std::string& input) {
  const std::uint64_t rounds = rng.uniform_int(4);  // 0 = keep well-formed
  for (std::uint64_t r = 0; r < rounds && !input.empty(); ++r) {
    switch (rng.uniform_int(5)) {
      case 0:  // flip a byte
        input[rng.uniform_int(input.size())] =
            static_cast<char>(rng.uniform_int(256));
        break;
      case 1:  // insert a byte
        input.insert(input.begin() +
                         static_cast<std::ptrdiff_t>(
                             rng.uniform_int(input.size() + 1)),
                     static_cast<char>(rng.uniform_int(256)));
        break;
      case 2: {  // erase a short range
        const std::size_t at = rng.uniform_int(input.size());
        const std::size_t n =
            std::min<std::size_t>(1 + rng.uniform_int(4), input.size() - at);
        input.erase(at, n);
        break;
      }
      case 3: {  // duplicate a slice
        const std::size_t at = rng.uniform_int(input.size());
        const std::size_t n =
            std::min<std::size_t>(1 + rng.uniform_int(8), input.size() - at);
        input.insert(rng.uniform_int(input.size() + 1),
                     input.substr(at, n));
        break;
      }
      default:  // truncate
        input.resize(rng.uniform_int(input.size() + 1));
        break;
    }
  }
}

std::string to_hex(const std::string& bytes) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out += hex[c >> 4];
    out += hex[c & 0xf];
  }
  return out;
}

template <typename Gen, typename Entry>
FuzzResult run_campaign(const char* target, std::uint64_t seed,
                        std::uint64_t iterations, Gen gen, Entry entry) {
  FuzzResult result;
  result.target = target;
  result.seed = seed;
  util::Rng rng = util::Rng(seed).split(
      std::hash<std::string_view>{}(target));
  for (std::uint64_t it = 0; it < iterations; ++it) {
    result.iterations = it + 1;
    std::string input = gen(rng);
    mutate(rng, input);
    try {
      if (entry(reinterpret_cast<const std::uint8_t*>(input.data()),
                input.size()))
        ++result.accepted;
    } catch (const std::exception& e) {
      result.bugs.push_back({it, e.what(), to_hex(input)});
    } catch (...) {
      result.bugs.push_back({it, "non-std exception", to_hex(input)});
    }
  }
  return result;
}

}  // namespace

std::string FuzzResult::summary() const {
  std::string out = target + ": " + std::to_string(iterations) +
                    " iterations, " + std::to_string(accepted) +
                    " accepted, " + std::to_string(bugs.size()) + " bug(s)";
  for (const FuzzBug& b : bugs)
    out += "\n  BUG seed=" + std::to_string(seed) +
           " iteration=" + std::to_string(b.iteration) + ": " + b.what +
           "\n  input_hex=" + b.input_hex;
  return out;
}

FuzzResult fuzz_json(std::uint64_t seed, std::uint64_t iterations) {
  return run_campaign("json", seed, iterations, gen_json, fuzz_json_one);
}
FuzzResult fuzz_wire(std::uint64_t seed, std::uint64_t iterations) {
  return run_campaign("wire", seed, iterations, gen_wire, fuzz_wire_one);
}
FuzzResult fuzz_plan(std::uint64_t seed, std::uint64_t iterations) {
  return run_campaign("plan", seed, iterations, gen_plan, fuzz_plan_one);
}
FuzzResult fuzz_model(std::uint64_t seed, std::uint64_t iterations) {
  return run_campaign("model", seed, iterations, gen_model, fuzz_model_one);
}

FuzzResult fuzz_config(std::uint64_t seed, std::uint64_t iterations) {
  return run_campaign("config", seed, iterations, gen_config,
                      fuzz_config_one);
}
FuzzResult fuzz_scenario(std::uint64_t seed, std::uint64_t iterations) {
  return run_campaign("scenario", seed, iterations, gen_scenario,
                      fuzz_scenario_one);
}
FuzzResult fuzz_faultlog(std::uint64_t seed, std::uint64_t iterations) {
  return run_campaign("faultlog", seed, iterations, gen_faultlog,
                      fuzz_faultlog_one);
}

std::vector<FuzzResult> fuzz_all(std::uint64_t seed,
                                 std::uint64_t iterations) {
  return {fuzz_json(seed, iterations),     fuzz_wire(seed, iterations),
          fuzz_plan(seed, iterations),     fuzz_model(seed, iterations),
          fuzz_config(seed, iterations),   fuzz_scenario(seed, iterations),
          fuzz_faultlog(seed, iterations)};
}

std::vector<std::uint8_t> fuzz_unhex(const std::string& hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("bad hex digit");
  };
  if (hex.size() % 2 != 0)
    throw std::invalid_argument("odd-length hex string");
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) |
                                            nibble(hex[i + 1])));
  return out;
}

}  // namespace ftbesst::verify
