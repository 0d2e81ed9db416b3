// libFuzzer harness over the INI config reader fuzz entry
// (parse -> typed getters -> number round-trip; see src/verify/fuzz.hpp).

#include <cstddef>
#include <cstdint>

#include "verify/fuzz.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)ftbesst::verify::fuzz_config_one(data, size);
  return 0;
}
