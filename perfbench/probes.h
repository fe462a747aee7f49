// Direct-call layer probes for the traced run: each times one module's
// public functions in isolation (single thread, warm), so a regression in
// an end-to-end number can be pinned on the layer that moved.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Reading {
  double value = 0.0;
  const char* unit = "";
};

/// Runs every probe on inputs generated from `seed` (independent of the
/// workload) and returns metric name -> reading. Appends one span per probe
/// under a root "probes" span to `spans`. Container files go to `work_dir`.
std::map<std::string, Reading> run_probes(std::uint64_t seed, const std::string& work_dir,
                                          std::vector<SpanRec>& spans);

}  // namespace perfbench
