#include "common.hpp"

namespace perfbench {

std::string golden_digest(const std::string& key) {
  // Digests of each workload's canonical instance, recorded at the commit
  // that introduced the benchmark. A change that alters simulated results
  // fails the golden_digest check, whose message names the new digest,
  // until the drift is explained and the digest here re-recorded.
  struct Entry {
    const char* key;
    const char* digest;
  };
  static constexpr Entry kGolden[] = {
      {"paper_sweep", "a4c57b80da0a93c6"},
      {"scale_trial", "201cf9ef2f64ec77"},
      {"serve_session", "97374ba2ed896f7c"},
      {"extension_loops", "653fd63864356e6a"},
  };
  for (const Entry& entry : kGolden) {
    if (key == entry.key) return entry.digest;
  }
  return "unknown";
}

}  // namespace perfbench
