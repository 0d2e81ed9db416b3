// Unit tests of ftbench's own measurement code: nearest-rank
// percentiles, the at-least-10-samples-beyond tail rule, the settle test
// and the bit digests. Plain checks that stay on in every build type;
// exits 1 if any check fails. Run via `python3 perfbench/run.py
// --selftest` or directly from the build directory.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_nearest_rank() {
  using perfbench::nearest_rank;
  check(!nearest_rank({}, 0.5).has_value(), "empty input has no percentile");
  check(nearest_rank({7.0}, 0.5) == 7.0, "single sample is every percentile");
  check(nearest_rank(one_to(100), 0.50) == 50.0, "p50 of 1..100 is 50");
  check(nearest_rank(one_to(100), 0.90) == 90.0, "p90 of 1..100 is 90");
  check(nearest_rank(one_to(100), 0.99) == 99.0, "p99 of 1..100 is 99");
  check(nearest_rank(one_to(101), 0.50) == 51.0, "p50 of 1..101 is 51");
  check(nearest_rank(one_to(10), 1.0) == 10.0, "p100 is the maximum");
  check(nearest_rank(one_to(3), 0.01) == 1.0, "tiny q clamps to rank 1");
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  check(samples_beyond(100, 0.90) == 10, "10 of 100 lie beyond p90");
  check(samples_beyond(99, 0.90) == 9, "9 of 99 lie beyond p90");
  check(samples_beyond(1000, 0.99) == 10, "10 of 1000 lie beyond p99");
  check(samples_beyond(0, 0.5) == 0, "nothing lies beyond in no samples");
  check(tail_percentile(one_to(100), 0.90) == 90.0,
        "p90 reported with exactly 10 beyond");
  check(!tail_percentile(one_to(99), 0.90).has_value(),
        "p90 withheld with 9 beyond");
  check(!tail_percentile(one_to(999), 0.99).has_value(),
        "p99 withheld below 1000 samples");
  check(tail_percentile(one_to(1000), 0.99) == 990.0,
        "p99 of 1..1000 is 990");
  using perfbench::samples_for_tail;
  check(samples_for_tail(0.90) == 100, "p90 needs 100 samples");
  check(samples_for_tail(0.99) == 1000, "p99 needs 1000 samples");
  check(samples_for_tail(0.50) == 20, "p50 needs 20 samples");
}

void test_median_and_settle() {
  using perfbench::median;
  using perfbench::settled;
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages");
  check(settled({10, 10, 10}, {10.5, 10.9, 9.5}, 0.10), "5% drift settles");
  check(!settled({10, 10, 10}, {12, 12, 12}, 0.10), "20% drift does not");
  check(!settled({0, 0}, {0, 0}, 0.10), "zero baseline never settles");
}

void test_digest() {
  using perfbench::Digest;
  check(Digest().value() == 0xcbf29ce484222325ull, "FNV-1a offset basis");
  check(Digest().bytes("a").value() == 0xaf63dc4c8601ec8cull,
        "FNV-1a 64 of \"a\"");
  check(Digest().f64(0.0).value() != Digest().f64(-0.0).value(),
        "digest sees the sign bit");
  const double x = 0.1 + 0.2;
  check(Digest().f64(x).value() != Digest().f64(0.3).value(),
        "digest sees the last ulp");
  check(Digest().f64(std::nextafter(1.0, 2.0)).value() !=
            Digest().f64(1.0).value(),
        "digest sees one ulp");
  check(Digest().f64s({1.0, 2.0}).value() == Digest().f64s({1.0, 2.0}).value(),
        "digest is deterministic");
  check(Digest().f64s({1.0, 2.0}).value() != Digest().f64s({2.0, 1.0}).value(),
        "digest sees order");
  check(Digest().f64s({1.0}).f64s({}).value() !=
            Digest().f64s({}).f64s({1.0}).value(),
        "length prefix separates sequences");
  check(Digest().bytes("ab").value() != Digest().bytes("ba").value(),
        "byte order matters");
  check(perfbench::mix(1) != perfbench::mix(2), "mix separates seeds");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_tail_rule();
  test_median_and_settle();
  test_digest();
  if (failures != 0) {
    std::cerr << failures << " harness check(s) failed\n";
    return 1;
  }
  std::cout << "ftbench_tests: all harness checks passed\n";
  return 0;
}
