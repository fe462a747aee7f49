#include "harness.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <fstream>
#include <memory>
#include <thread>

#include "obs/obs.h"
#include "support/error.h"
#include "workloads.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// --- LatencyHist -------------------------------------------------------------

LatencyHist::LatencyHist() : counts_(kLinear + kOctaves * kSub, 0) {}

std::uint32_t LatencyHist::index(std::uint64_t ns) {
  if (ns < kLinear) return static_cast<std::uint32_t>(ns);
  const auto e = static_cast<std::uint32_t>(std::bit_width(ns) - 1);  // >= 12
  const std::uint32_t octave = std::min(e - 12, kOctaves - 1);
  const auto sub = static_cast<std::uint32_t>((ns >> (octave + 6)) & (kSub - 1));
  return kLinear + octave * kSub + sub;
}

double LatencyHist::lower(std::uint32_t idx) {
  if (idx < kLinear) return idx;
  const std::uint32_t octave = (idx - kLinear) / kSub;
  const std::uint32_t sub = (idx - kLinear) % kSub;
  return static_cast<double>(std::uint64_t{kSub + sub} << (octave + 6));
}

double LatencyHist::upper(std::uint32_t idx) {
  if (idx < kLinear) return idx + 1.0;
  const std::uint32_t octave = (idx - kLinear) / kSub;
  return lower(idx) + static_cast<double>(std::uint64_t{1} << (octave + 6));
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHist::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_ - 1) + 0.5;
  double cum = 0.0;
  for (std::uint32_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (c > 0 && cum + c >= rank) return lower(i) + (upper(i) - lower(i)) * (rank - cum) / c;
    cum += c;
  }
  return upper(static_cast<std::uint32_t>(counts_.size() - 1));
}

// --- Trace files -------------------------------------------------------------

bool write_trace_files(const std::vector<SpanRec>& spans, const std::string& chrome_path,
                       const std::string& spans_path) {
  std::vector<ccomp::obs::SpanEvent> events;
  events.reserve(spans.size());
  for (const SpanRec& s : spans)
    events.push_back(ccomp::obs::SpanEvent{s.name, s.thread, s.parent == 0 ? 0u : 1u, s.start_ns,
                                           s.end_ns - s.start_ns});
  std::ofstream chrome(chrome_path, std::ios::trunc);
  chrome << ccomp::obs::to_chrome_trace(events);
  std::ofstream flat(spans_path, std::ios::trunc);
  flat << "{\"fields\":[\"name\",\"thread\",\"id\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    flat << (i ? ",\n" : "\n") << "[\"" << s.name << "\"," << s.thread << "," << s.id << ","
         << s.parent << "," << s.start_ns << "," << s.end_ns << "]";
  }
  flat << "]}\n";
  return static_cast<bool>(chrome) && static_cast<bool>(flat);
}

// --- Host ----------------------------------------------------------------------

HostInfo host_info() {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) h.nproc = std::max(1, CPU_COUNT(&set));
  h.hardware_concurrency = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.obs_compiled = PERFBENCH_OBS != 0;
  return h;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (std::uint64_t& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return static_cast<double>(field[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// --- Closed-loop phase ---------------------------------------------------------

namespace {

constexpr std::size_t kSpanRing = 1u << 13;  // spans kept per thread (most recent)
constexpr std::uint64_t kFailedLatencyNs = 1'000'000'000'000ULL;  // a failure misses any limit

const char* const kSourceSpan[kSources] = {"server.fetch.cache", "server.fetch.coalesced",
                                           "server.fetch.decode", "server.fetch.golden"};

struct alignas(64) Progress {
  std::atomic<std::uint64_t> fetches{0};
};

struct ReaderOut {
  LatencyHist latency;
  std::array<LatencyHist, kSources> by_source;
  std::uint64_t attempted = 0, failed = 0, mismatched = 0;
  std::vector<SpanRec> ring;
  std::uint64_t recorded = 0;
  SpanRec root;
};

std::uint64_t root_id(std::size_t thread_index) { return std::uint64_t{thread_index + 1} << 40; }

void reader_loop(Workload& w, std::size_t r, bool traced, const std::atomic<bool>& stop,
                 Progress& progress, ReaderOut& out) {
  const std::vector<Access>& stream = w.streams[r];
  std::size_t pos = w.cursor[r];
  ccomp::server::ImageServer& srv = *w.server;
  const auto thread = static_cast<std::uint32_t>(r + 1);
  out.root = SpanRec{"reader.loop", thread, root_id(r), 0, now_ns(), 0};
  if (traced) out.ring.resize(kSpanRing);
  std::uint64_t n = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const Access a = stream[pos];
    if (++pos == stream.size()) pos = 0;
    const ServedImage& img = w.images[a.image];
    const std::uint64_t t0 = now_ns();
    const char* span_name = "server.fetch.error";
    try {
      const ccomp::server::FetchResult res = srv.fetch(img.name, a.block);
      const std::uint64_t t1 = now_ns();
      out.latency.add(t1 - t0);
      if (!res.bytes || !img.matches(a.block, *res.bytes)) ++out.mismatched;
      if (traced) {
        const auto src = static_cast<std::size_t>(res.source);
        out.by_source[src].add(t1 - t0);
        span_name = kSourceSpan[src];
        out.ring[out.recorded++ % kSpanRing] =
            SpanRec{span_name, thread, out.root.id + 1 + n, out.root.id, t0, t1};
      }
    } catch (const ccomp::Error&) {
      ++out.failed;
      out.latency.add(kFailedLatencyNs);
      if (traced)
        out.ring[out.recorded++ % kSpanRing] =
            SpanRec{span_name, thread, out.root.id + 1 + n, out.root.id, t0, now_ns()};
    }
    ++n;
    progress.fetches.store(n, std::memory_order_relaxed);
  }
  out.root.end_ns = now_ns();
  out.attempted = n;
  w.cursor[r] = pos;
}

std::uint64_t total_fetches(const std::vector<std::unique_ptr<Progress>>& progress) {
  std::uint64_t sum = 0;
  for (const auto& p : progress) sum += p->fetches.load(std::memory_order_relaxed);
  return sum;
}

/// swap_churn's writer: every `swap_every` completed fetches, hot-swap the
/// next image to its other encoding.
void writer_loop(Workload& w, bool traced, const std::atomic<bool>& stop,
                 const std::vector<std::unique_ptr<Progress>>& progress, PhaseResult& out,
                 std::vector<SpanRec>& spans) {
  const std::size_t thread_index = w.streams.size();
  const SpanRec root{"writer.loop", static_cast<std::uint32_t>(thread_index + 1),
                     root_id(thread_index), 0, now_ns(), 0};
  std::uint64_t next = total_fetches(progress) + w.swap_every;
  std::size_t k = 0;
  std::uint64_t swaps = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (total_fetches(progress) < next) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    next += w.swap_every;
    ServedImage& img = w.images[k];
    const bool to_alt = !w.swapped[k];
    const std::uint64_t t0 = now_ns();
    const auto res = w.server->swap(img.name, to_alt ? *img.alt_codec : *img.codec,
                                    to_alt ? *img.alt_image : img.image);
    const std::uint64_t t1 = now_ns();
    out.swap_ms.emplace_back(k, static_cast<double>(t1 - t0) / 1e6);
    if (res.accepted) w.swapped[k] = to_alt;
    else ++out.swaps_rejected;
    if (traced)
      spans.push_back(SpanRec{"server.swap", root.thread, root.id + 1 + swaps, root.id, t0, t1});
    ++swaps;
    k = (k + 1) % w.images.size();
  }
  SpanRec done = root;
  done.end_ns = now_ns();
  if (traced) spans.push_back(done);
}

}  // namespace

void PhaseResult::absorb(const PhaseResult& other) {
  latency.merge(other.latency);
  for (int s = 0; s < kSources; ++s) by_source[s].merge(other.by_source[s]);
  attempted += other.attempted;
  failed += other.failed;
  mismatched += other.mismatched;
  window_rates.insert(window_rates.end(), other.window_rates.begin(), other.window_rates.end());
  swap_ms.insert(swap_ms.end(), other.swap_ms.begin(), other.swap_ms.end());
  swaps_rejected += other.swaps_rejected;
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

PhaseResult run_phase(Workload& w, double seconds, bool traced) {
  PhaseResult result;
  const std::size_t readers = w.streams.size();
  std::vector<std::unique_ptr<Progress>> progress;
  for (std::size_t r = 0; r < readers; ++r) progress.push_back(std::make_unique<Progress>());
  std::vector<ReaderOut> outs(readers);
  std::vector<SpanRec> writer_spans;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(readers + 1);
  const std::uint64_t start = now_ns();
  for (std::size_t r = 0; r < readers; ++r)
    threads.emplace_back(reader_loop, std::ref(w), r, traced, std::cref(stop),
                         std::ref(*progress[r]), std::ref(outs[r]));
  if (w.writer)
    threads.emplace_back(writer_loop, std::ref(w), traced, std::cref(stop), std::cref(progress),
                         std::ref(result), std::ref(writer_spans));

  // Sample the fetch counters at equal sub-windows of about a second; the
  // throughput metric is the median window, which shrugs off one window
  // stolen by another process.
  const int windows = std::max(1, static_cast<int>(std::lround(seconds)));
  const auto window = std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9 / windows));
  auto deadline = std::chrono::steady_clock::now();
  std::uint64_t last_count = 0;
  std::uint64_t last_t = start;
  for (int k = 0; k < windows; ++k) {
    deadline += window;
    std::this_thread::sleep_until(deadline);
    const std::uint64_t count = total_fetches(progress);
    const std::uint64_t t = now_ns();
    result.window_rates.push_back(static_cast<double>(count - last_count) * 1e9 /
                                  static_cast<double>(t - last_t));
    last_count = count;
    last_t = t;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  for (ReaderOut& o : outs) {
    result.latency.merge(o.latency);
    for (int s = 0; s < kSources; ++s) result.by_source[s].merge(o.by_source[s]);
    result.attempted += o.attempted;
    result.failed += o.failed;
    result.mismatched += o.mismatched;
    if (traced) {
      result.spans.push_back(o.root);
      const std::uint64_t kept = std::min<std::uint64_t>(o.recorded, kSpanRing);
      for (std::uint64_t i = o.recorded - kept; i < o.recorded; ++i)
        result.spans.push_back(o.ring[i % kSpanRing]);
    }
  }
  result.spans.insert(result.spans.end(), writer_spans.begin(), writer_spans.end());
  return result;
}

}  // namespace perfbench
