// libFuzzer harness over the scenario text format fuzz entry
// (parse -> to_text -> parse fixpoint; see src/verify/fuzz.hpp).

#include <cstddef>
#include <cstdint>

#include "verify/fuzz.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)ftbesst::verify::fuzz_scenario_one(data, size);
  return 0;
}
