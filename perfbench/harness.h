// Shared measurement pieces of the benchmark: clocks, a latency histogram,
// benchmark-side trace spans, host description, and the closed-loop phase
// runner that drives ImageServer::fetch from reader threads (plus the
// optional hot-swap writer).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Workload;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// splitmix64 finaliser: derives independent sub-seeds from the run seed.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1) + 0xbf58476d1ce4e5b9ULL * (c + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values);
/// q in [0, 1], linear between order statistics; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Latency histogram: 1 ns buckets below 4096 ns, then 64 log-spaced
/// sub-buckets per power of two. Quantiles interpolate inside a bucket.
class LatencyHist {
 public:
  LatencyHist();
  void add(std::uint64_t ns) { ++counts_[index(ns)]; ++total_; }
  void merge(const LatencyHist& other);
  std::uint64_t count() const { return total_; }
  /// q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr std::uint32_t kLinear = 4096;
  static constexpr std::uint32_t kSub = 64;
  static constexpr std::uint32_t kOctaves = 40;
  static std::uint32_t index(std::uint64_t ns);
  static double lower(std::uint32_t idx);
  static double upper(std::uint32_t idx);
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// One benchmark-side span: a call the benchmark made into a layer.
/// `id` is unique per span; every fetch span's id is the fetch id.
struct SpanRec {
  const char* name = nullptr;
  std::uint32_t thread = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Writes `spans` as a chrome://tracing file (through obs::to_chrome_trace)
/// and as a flat JSON list keeping the id/parent links the chrome format
/// has no field for. Returns false when a file cannot be written.
bool write_trace_files(const std::vector<SpanRec>& spans, const std::string& chrome_path,
                       const std::string& spans_path);

struct HostInfo {
  unsigned nproc = 1;                 // CPUs this process may run on
  unsigned hardware_concurrency = 0;  // std::thread::hardware_concurrency()
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool obs_compiled = false;  // CCOMP_OBS build option
};
HostInfo host_info();

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mb();

/// CPU time the hypervisor gave to other guests ("steal" in /proc/stat),
/// summed over all CPUs, in seconds; 0 where the kernel does not report it.
double host_steal_s();

/// Which FetchSource a fetch was served from (server::FetchSource order).
inline constexpr int kSources = 4;

struct PhaseResult {
  LatencyHist latency;                           // every attempted fetch
  std::array<LatencyHist, kSources> by_source;  // traced phases only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // typed ccomp::Error from fetch
  std::uint64_t mismatched = 0;  // served bytes differ from the program
  std::vector<double> window_rates;  // fetches/s in equal sub-windows
  std::vector<std::pair<std::size_t, double>> swap_ms;  // writer's swap(): (image, ms)
  std::uint64_t swaps_rejected = 0;
  std::vector<SpanRec> spans;  // traced phases only (ring-limited per thread)

  /// Fold a later segment of the same workload into this result.
  void absorb(const PhaseResult& other);
};

/// Runs the workload's readers (and its writer, when it has one) in a
/// closed loop for `seconds`, sampling throughput once per second.
/// Readers continue their access streams from where the previous phase
/// stopped. With `traced`, every fetch is also timed per source and
/// recorded as a span under a per-reader root span.
PhaseResult run_phase(Workload& w, double seconds, bool traced);

}  // namespace perfbench
