#include <filesystem>
#include <fstream>
#include <system_error>

#include "obs/obs.hpp"

namespace ftbesst::obs {

void touch() {
  detail::metrics_touch();
  detail::trace_touch();
}

bool write_output_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;

  {
    std::ofstream os(fs::path(dir) / "metrics.json");
    if (!os) return false;
    os << scrape().to_json().dump() << '\n';
  }
  {
    std::ofstream os(fs::path(dir) / "trace.json");
    if (!os) return false;
    write_chrome_trace(os);
    os << '\n';
  }
  {
    std::ofstream os(fs::path(dir) / "summary.txt");
    if (!os) return false;
    write_flame_summary(os);
  }
  return true;
}

}  // namespace ftbesst::obs
