// libFuzzer harness over the fault-log text format fuzz entry
// (read -> write -> read fixpoint; see src/verify/fuzz.hpp).

#include <cstddef>
#include <cstdint>

#include "verify/fuzz.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)ftbesst::verify::fuzz_faultlog_one(data, size);
  return 0;
}
