// perfbench: the repository benchmark. Drives ccomp::server::ImageServer end
// to end on one named workload and prints a human-readable report followed,
// as the last stdout line, by one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set (traced phase + direct-call layer probes). Usually run
// through perfbench/run.py, which builds this binary first.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--commit <id>]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "support/error.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--commit <id>]\nworkloads:",
               why);
  for (const auto name : workload_names())
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(v);
    else if (key == "--trace") a.trace = std::atoi(v) != 0;
    else if (key == "--work-dir") a.work_dir = v;
    else if (key == "--commit") a.commit = v;
    else usage(("unknown argument " + key).c_str());
  }
  bool known = false;
  for (const auto name : workload_names()) known = known || name == a.workload;
  if (!known) usage("unknown or missing --workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Counter snapshot from the server's public stats()/cache_stats().
struct Counts {
  std::uint64_t lookups = 0, cache_lookups = 0, hits = 0, misses = 0, coalesced = 0,
                evictions = 0, decodes = 0, retries = 0, prefetch_issued = 0, prefetch_hits = 0,
                prefetch_waste = 0, swaps_accepted = 0, swaps_rejected = 0;

  static Counts of(const ccomp::server::ImageServer& srv) {
    const auto s = srv.stats();
    const auto c = srv.cache_stats();
    Counts k;
    k.lookups = s.lookups;
    k.cache_lookups = c.lookups;
    k.hits = c.hits;
    k.misses = c.misses;
    k.coalesced = c.coalesced;
    k.evictions = c.evictions;
    k.decodes = s.decodes;
    k.retries = s.retries;
    k.prefetch_issued = s.prefetch_issued;
    k.prefetch_hits = s.prefetch_hits;
    k.prefetch_waste = s.prefetch_waste;
    k.swaps_accepted = s.swaps_accepted;
    k.swaps_rejected = s.swaps_rejected;
    return k;
  }
  Counts operator-(const Counts& o) const {
    Counts d;
    d.lookups = lookups - o.lookups;
    d.cache_lookups = cache_lookups - o.cache_lookups;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.coalesced = coalesced - o.coalesced;
    d.evictions = evictions - o.evictions;
    d.decodes = decodes - o.decodes;
    d.retries = retries - o.retries;
    d.prefetch_issued = prefetch_issued - o.prefetch_issued;
    d.prefetch_hits = prefetch_hits - o.prefetch_hits;
    d.prefetch_waste = prefetch_waste - o.prefetch_waste;
    d.swaps_accepted = swaps_accepted - o.swaps_accepted;
    d.swaps_rejected = swaps_rejected - o.swaps_rejected;
    return d;
  }
  Counts& operator+=(const Counts& o) {
    lookups += o.lookups;
    cache_lookups += o.cache_lookups;
    hits += o.hits;
    misses += o.misses;
    coalesced += o.coalesced;
    evictions += o.evictions;
    decodes += o.decodes;
    retries += o.retries;
    prefetch_issued += o.prefetch_issued;
    prefetch_hits += o.prefetch_hits;
    prefetch_waste += o.prefetch_waste;
    swaps_accepted += o.swaps_accepted;
    swaps_rejected += o.swaps_rejected;
    return *this;
  }
  double hit_rate() const { return ratio(hits, cache_lookups); }
  static double ratio(std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count or provenance, report only
};
using Metrics = std::map<std::string, Metric>;

/// Single-thread samples taken in a child process (this binary, run with
/// --sample-child). Cold-start and swap timings on a virtualised host fall
/// into modes decided per process (where its memory lands), so taking each
/// batch in a fresh process lets the run's percentile cover those modes
/// instead of inheriting the one the benchmark process happened to get.
struct ChildSample {
  std::vector<double> cold_ms;     // per image: open + load + first fetch
  std::vector<std::uint64_t> fnv;  // per image: hash of the first fetched block
  std::vector<double> swap_ms;     // per image: idle swap, when asked for
  bool swaps_accepted = true;
};

std::uint64_t fnv_of(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// The child's side: load every image from its aligned container into a
/// fresh server (timing open + load + first fetch per image), fetch every
/// block so the cache is warm, then time a swap of each image to its own
/// encoding, starting at image `turn` (when turn >= 0). Prints one line per
/// sample.
int sample_child(int argc, char** argv) {
  ccomp::server::ImageServer::Options opts;
  long turn = -1;
  std::vector<std::pair<CodecId, std::string>> images;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--turn") turn = std::atol(argv[i + 1]);
    else if (key == "--capacity")
      opts.cache.capacity_bytes = std::strtoull(argv[i + 1], nullptr, 10);
    else if (key == "--prefetch") opts.prefetch = std::atoi(argv[i + 1]) != 0;
    else if (key == "--image") {
      const std::string spec = argv[i + 1];  // <codec id>:<path>
      const std::size_t colon = spec.find(':');
      images.emplace_back(static_cast<CodecId>(std::atoi(spec.substr(0, colon).c_str())),
                          spec.substr(colon + 1));
    }
  }
  try {
    std::vector<std::unique_ptr<ccomp::core::BlockCodec>> codecs;
    for (const auto& [id, path] : images) codecs.push_back(make_codec(id));
    // Declared before the server, which serves views of them after a swap.
    std::vector<std::optional<ccomp::core::MappedImage>> swap_sources(images.size());
    ccomp::server::ImageServer srv(opts);
    for (std::size_t i = 0; i < images.size(); ++i) {
      const std::string name = std::to_string(i);
      const std::uint64_t t0 = now_ns();
      srv.load(name, *codecs[i], ccomp::core::MappedImage::open(images[i].second));
      const auto res = srv.fetch(name, 0);
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      std::printf("cold %zu %.6f %llu\n", i, ms,
                  static_cast<unsigned long long>(res.bytes ? fnv_of(*res.bytes) : 0));
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      const std::string name = std::to_string(i);
      const std::size_t blocks = srv.block_count(name);
      for (std::uint32_t b = 0; b < blocks; ++b) (void)srv.fetch(name, b);
    }
    for (std::size_t j = 0; turn >= 0 && j < images.size(); ++j) {
      const std::size_t k = (static_cast<std::size_t>(turn) + j) % images.size();
      swap_sources[k].emplace(ccomp::core::MappedImage::open(images[k].second));
      const ccomp::core::CompressedImage image = swap_sources[k]->view_image();
      const std::uint64_t t0 = now_ns();
      const auto res = srv.swap(std::to_string(k), *codecs[k], image);
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      std::printf("swap %zu %.6f %d\n", k, ms, res.accepted ? 1 : 0);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench sample child: %s\n", e.what());
    return 3;
  }
}

/// Runs one sample child for the workload's images and parses its lines.
ChildSample run_sample_child(const Workload& w, long turn) {
  std::string cmd = "'" + std::filesystem::read_symlink("/proc/self/exe").string() +
                    "' --sample-child --turn " + std::to_string(turn) + " --capacity " +
                    std::to_string(w.options.cache.capacity_bytes) + " --prefetch " +
                    (w.options.prefetch ? "1" : "0");
  for (const ServedImage& img : w.images)
    cmd += " --image '" + std::to_string(static_cast<int>(img.codec_id)) + ":" +
           img.container_path + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot start the sample child");
  ChildSample out;
  out.cold_ms.assign(w.images.size(), -1.0);
  out.fnv.assign(w.images.size(), 0);
  out.swap_ms.assign(w.images.size(), -1.0);
  char kind[8] = {};
  std::size_t image = 0;
  double ms = 0.0;
  unsigned long long extra = 0;
  while (std::fscanf(pipe, "%7s %zu %lf %llu", kind, &image, &ms, &extra) == 4) {
    if (image >= w.images.size()) continue;
    if (std::strcmp(kind, "cold") == 0) {
      out.cold_ms[image] = ms;
      out.fnv[image] = extra;
    } else if (std::strcmp(kind, "swap") == 0) {
      out.swap_ms[image] = ms;
      out.swaps_accepted = out.swaps_accepted && extra != 0;
    }
  }
  if (pclose(pipe) != 0) throw std::runtime_error("the sample child failed");
  for (const double c : out.cold_ms)
    if (c < 0) throw std::runtime_error("the sample child reported no cold start");
  for (const double s : out.swap_ms)
    if (turn >= 0 && s < 0) throw std::runtime_error("the sample child reported no swap");
  return out;
}

/// The set-up child's side: build the workload once and print the time it
/// took. Set-up times fall into per-process modes like the samples above.
int setup_child(const Args& args, const HostInfo& host) {
  try {
    const std::uint64_t t0 = now_ns();
    const std::unique_ptr<Workload> w =
        build_workload(args.workload, args.seed, args.work_dir, host.nproc);
    std::printf("setup %.9f\n", static_cast<double>(now_ns() - t0) / 1e9);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench setup child: %s\n", e.what());
    return 3;
  }
}

/// Runs one set-up child and returns its set-up time in seconds. It writes
/// its containers to a directory of its own: the parent's server may have
/// one of its containers mapped.
double run_setup_child(const Args& args) {
  const std::string cmd = "'" + std::filesystem::read_symlink("/proc/self/exe").string() +
                          "' --setup-child --workload " + args.workload + " --seed " +
                          std::to_string(args.seed) + " --work-dir '" + args.work_dir +
                          "/setup-child'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot start the set-up child");
  double seconds = -1.0;
  if (std::fscanf(pipe, "setup %lf", &seconds) != 1) seconds = -1.0;
  if (pclose(pipe) != 0 || seconds < 0) throw std::runtime_error("the set-up child failed");
  return seconds;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

/// Which property each workload must show to count as exercising its layer.
std::string layer_check(const Workload& w, const Counts& d) {
  if (w.name == "hot_resident" && d.hit_rate() < 0.99)
    return "hot_resident cache.hit_rate " + json_number(d.hit_rate()) + " < 0.99";
  if (w.name == "cold_miss" && d.hit_rate() > 0.2)
    return "cold_miss cache.hit_rate " + json_number(d.hit_rate()) + " > 0.2";
  if (w.name == "trace_prefetch" && d.prefetch_issued == 0)
    return "trace_prefetch issued no prefetches";
  if (w.name == "swap_churn" && (d.swaps_rejected != 0 || d.swaps_accepted == 0))
    return "swap_churn swaps accepted " + std::to_string(d.swaps_accepted) + ", rejected " +
           std::to_string(d.swaps_rejected);
  return {};
}

void describe(const Workload& w, const HostInfo& host, const Args& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%u hardware_concurrency=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "CCOMP_OBS=%s commit=%s\n",
              host.nproc, host.hardware_concurrency, host.cpu_model.c_str(),
              host.compiler.c_str(), host.build_type.c_str(), host.obs_compiled ? "ON" : "OFF",
              args.commit.c_str());
  std::printf("seeds: programs=%llu layout_training=%llu replay=%llu inputs_fingerprint=%016llx\n",
              static_cast<unsigned long long>(w.seed),
              static_cast<unsigned long long>(w.train_seed),
              static_cast<unsigned long long>(w.replay_seed),
              static_cast<unsigned long long>(w.fingerprint));
  std::printf("sizes: images=%zu blocks=%zu decompressed=%zu B cache_capacity=%zu B "
              "hit_slots=%zu touched_blocks=%zu; %s\n",
              w.images.size(), w.block_count(), w.decompressed_bytes(),
              w.options.cache.capacity_bytes, w.options.cache.hit_slots, w.touched_blocks,
              w.loop.c_str());
  for (const ServedImage& img : w.images)
    std::printf("  image %-20s %-18s %6zu B -> %6zu B%s\n", img.name.c_str(),
                codec_label(img.codec_id), img.original_bytes, img.container_bytes,
                img.mapped ? " (mmap v3.1)" : (img.image.has_layout() ? " (layout)" : ""));
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The full result with the host and inputs it was measured on, written
/// next to the trace files so a number can always be traced to its host.
void write_record(const std::string& path, const Workload& w, const HostInfo& host,
                  const Args& args, const Metrics& metrics, std::uint64_t attempted,
                  std::uint64_t failed, bool correct, double steal_share) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\":" << quoted(w.name) << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"seconds\":" << json_number(args.seconds) << ",\"seed\":" << args.seed
      << ",\"layout_training_seed\":" << w.train_seed << ",\"replay_seed\":" << w.replay_seed
      << ",\"inputs_fingerprint\":" << quoted(std::to_string(w.fingerprint))
      << ",\"host\":{\"nproc\":" << host.nproc
      << ",\"hardware_concurrency\":" << host.hardware_concurrency
      << ",\"cpu_model\":" << quoted(host.cpu_model) << ",\"compiler\":" << quoted(host.compiler)
      << ",\"build_type\":" << quoted(host.build_type)
      << ",\"ccomp_obs\":" << (host.obs_compiled ? "true" : "false")
      << ",\"commit\":" << quoted(args.commit) << "},\"loop\":" << quoted(w.loop)
      << ",\"readers\":" << w.streams.size() << ",\"images\":" << w.images.size()
      << ",\"decompressed_bytes\":" << w.decompressed_bytes()
      << ",\"cache_capacity_bytes\":" << w.options.cache.capacity_bytes
      << ",\"hit_slots\":" << w.options.cache.hit_slots
      << ",\"touched_blocks\":" << w.touched_blocks
      << ",\"host_steal_share\":" << json_number(steal_share)
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"error_rate\":" << json_number(attempted ? double(failed) / double(attempted) : 0.0)
      << ",\"metrics\":" << metrics_json(metrics) << "}\n";
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics)
    std::printf("  %-30s %16.6g %-8s %s\n", name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
}

std::string n_of(std::uint64_t n) { return "n=" + std::to_string(n); }

/// Mean over images of each image's tenth-percentile sample.
double mean_of_p10(const std::vector<std::vector<double>>& per_image) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& samples : per_image) {
    if (samples.empty()) continue;
    sum += quantile(samples, 0.10);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::string per_image_note(const std::vector<std::vector<double>>& per_image) {
  std::string note = "mean of per-image p10 (median):";
  for (const auto& samples : per_image) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.4g (%.4g, n=%zu)", quantile(samples, 0.10),
                  median(samples), samples.size());
    note += buf;
  }
  return note;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--sample-child") == 0) return sample_child(argc, argv);
  const bool setup_only = argc > 1 && std::strcmp(argv[1], "--setup-child") == 0;
  const Args args = setup_only ? parse_args(argc - 1, argv + 1) : parse_args(argc, argv);
  const HostInfo host = host_info();
  const std::string out_dir = args.work_dir;
  std::filesystem::create_directories(out_dir);
  if (setup_only) return setup_child(args, host);

  try {
    // Set-up: this build is one sample of setup_s; set-up children add
    // more during the run.
    std::vector<double> setup_s;
    const std::uint64_t setup_begin = now_ns();
    std::unique_ptr<Workload> w = build_workload(args.workload, args.seed, out_dir, host.nproc);
    setup_s.push_back(static_cast<double>(now_ns() - setup_begin) / 1e9);
    describe(*w, host, args);

    Metrics metrics;
    std::uint64_t attempted = 0, failed = 0, mismatched = 0;
    std::string layer_problem;
    // Share of the run's CPU time the hypervisor gave to other guests: a
    // throughput outlier with a high share says "noisy host", not "slow code".
    const double steal_begin = host_steal_s();
    const std::uint64_t run_begin = now_ns();

    if (!args.trace) {
      // The timed phase runs in quarter-second segments with a sample
      // process for the single-thread samples (cold start, idle swap)
      // before, between and after them: about 80 samples per image in a
      // 20-second run. A shared host has slow spells, fractions of a second
      // to tens of seconds long, that cover a different share of each run;
      // the fetch-latency metric is the tenth percentile of the segments'
      // medians and the single-thread metrics are the tenth percentile of
      // their samples, so spells covering most of a run do not set them.
      const int segments = std::max(20, static_cast<int>(std::lround(4 * args.seconds)));
      // Set-up children, spread evenly over the gaps: setup_s is the median
      // over them and the build above.
      constexpr int kSetupChildren = 6;
      // Samples per image: images differ in cost, so each gets its own
      // percentile and the metric is their mean (a percentile over the
      // mixed samples would jump between images' values).
      std::vector<std::vector<double>> cold(w->images.size()), swaps(w->images.size());
      std::uint64_t rejected = 0;
      std::size_t swap_turn = 0;
      const auto sample_batch = [&] {
        // swap_churn's writer measures swaps under load; elsewhere the child
        // times an idle swap of every image, starting at a rotating image.
        const long turn = w->writer ? -1 : static_cast<long>(swap_turn++);
        const ChildSample c = run_sample_child(*w, turn);
        for (std::size_t i = 0; i < w->images.size(); ++i) {
          cold[i].push_back(c.cold_ms[i]);
          const ServedImage& img = w->images[i];
          const std::span<const std::uint8_t> expected(img.program.data() + img.block_offset[0],
                                                       img.block_len[0]);
          if (c.fnv[i] != fnv_of(expected)) ++mismatched;
        }
        if (turn >= 0) {
          for (std::size_t i = 0; i < w->images.size(); ++i) swaps[i].push_back(c.swap_ms[i]);
          if (!c.swaps_accepted) ++rejected;
        }
      };
      // Counts over the timed segments only: the idle swaps and re-warming
      // between them are not part of the workload's mix.
      Counts delta;
      PhaseResult phase;
      sample_batch();
      // Warm-up: the first fraction of a second after set-up runs slower
      // (threads and caches settling) and is not timed.
      (void)run_phase(*w, args.seconds / segments, false);
      std::vector<double> seg_p50;
      for (int s = 0; s < segments; ++s) {
        const Counts seg_before = Counts::of(*w->server);
        const PhaseResult seg = run_phase(*w, args.seconds / segments, false);
        seg_p50.push_back(seg.latency.quantile(0.50));
        phase.absorb(seg);
        delta += Counts::of(*w->server) - seg_before;
        sample_batch();
        if (s * kSetupChildren / segments != (s + 1) * kSetupChildren / segments)
          setup_s.push_back(run_setup_child(args));
      }
      layer_problem = layer_check(*w, delta);
      attempted = phase.attempted;
      failed = phase.failed;
      mismatched += phase.mismatched;
      rejected += phase.swaps_rejected;
      for (const auto& [image, ms] : phase.swap_ms) swaps[image].push_back(ms);
      if (rejected != 0) layer_problem += " swap rejected";
      const std::string samples = n_of(phase.latency.count());

      metrics["fetch_p50_ns"] = {quantile(seg_p50, 0.10), "ns",
                                 "p10 of " + std::to_string(seg_p50.size()) +
                                     " segment medians, " + samples};
      metrics["fetch_p99_ns"] = {phase.latency.quantile(0.99), "ns", samples};
      metrics["fetches_per_s"] = {median(phase.window_rates), "1/s",
                                  "median of " + std::to_string(phase.window_rates.size()) +
                                      " windows"};
      metrics["compression_ratio"] = {w->compression_ratio(), "ratio", "container/original"};
      std::string setup_note = "median of";
      for (const double s : setup_s) setup_note += " " + json_number(s);
      metrics["setup_s"] = {median(setup_s), "s", setup_note};
      metrics["cold_start_ms"] = {mean_of_p10(cold), "ms", per_image_note(cold)};
      metrics["swap_p10_ms"] = {mean_of_p10(swaps), "ms",
                                per_image_note(swaps) + (w->writer ? " under load" : " idle")};
      metrics["peak_rss_mb"] = {peak_rss_mb(), "MB", "VmHWM"};
      print_metrics("end-to-end:", metrics);
      std::printf("  %-30s %16.6g %-8s %s\n", "error_rate",
                  Counts::ratio(failed, attempted), "ratio", n_of(attempted).c_str());
      std::printf("  segment fetch medians (ns):");
      for (const double p50 : seg_p50) std::printf(" %.1f", p50);
      std::printf("\n  window rates (1/s):");
      for (const double rate : phase.window_rates) std::printf(" %.4g", rate);
      std::printf("\n  (cache.hit_rate %.4f over %llu lookups, %llu swaps accepted)\n",
                  delta.hit_rate(), static_cast<unsigned long long>(delta.cache_lookups),
                  static_cast<unsigned long long>(delta.swaps_accepted));
    } else {
      // Untraced half, then traced half: the difference is the tracing cost.
      const PhaseResult plain = run_phase(*w, args.seconds / 2, false);
      const Counts before = Counts::of(*w->server);
      PhaseResult traced = run_phase(*w, args.seconds / 2, true);
      const Counts d = Counts::of(*w->server) - before;
      attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      mismatched = plain.mismatched + traced.mismatched;
      layer_problem = layer_check(*w, d);
      if (d.swaps_rejected != 0) layer_problem += " swap rejected";

      const double readers = static_cast<double>(w->streams.size());
      const double plain_ns = readers * 1e9 / median(plain.window_rates);
      const double traced_ns = readers * 1e9 / median(traced.window_rates);
      const auto& cache_src = traced.by_source[0];
      const auto& decode_src = traced.by_source[2];
      metrics["server.hit_ns"] = {cache_src.quantile(0.5), "ns", n_of(cache_src.count())};
      metrics["server.miss_ns"] = {decode_src.quantile(0.5), "ns", n_of(decode_src.count())};
      metrics["server.decodes_per_fetch"] = {Counts::ratio(d.decodes, d.lookups), "1/fetch", ""};
      metrics["server.coalesced_share"] = {Counts::ratio(d.coalesced, d.lookups), "ratio", ""};
      metrics["cache.hit_rate"] = {d.hit_rate(), "ratio", n_of(d.cache_lookups)};
      metrics["cache.evictions_per_fetch"] = {Counts::ratio(d.evictions, d.lookups), "1/fetch",
                                              ""};
      const auto cache = w->server->cache_stats();
      const std::string slots = std::to_string(w->options.cache.hit_slots);
      metrics["cache.resident_blocks"] = {static_cast<double>(cache.inserts - cache.evictions),
                                          "count", "vs hit_slots=" + slots};
      metrics["layout.prefetch_hit_rate"] = {Counts::ratio(d.prefetch_hits, d.prefetch_issued),
                                             "ratio", "over issued"};
      metrics["layout.prefetch_waste_rate"] = {
          Counts::ratio(d.prefetch_waste, d.prefetch_issued), "ratio", "over issued"};
      metrics["trace.overhead_ns"] = {traced_ns - plain_ns, "ns",
                                      "per fetch per reader, traced - untraced"};
      const std::pair<const char*, std::uint64_t> counts[] = {
          {"server.lookups", d.lookups},       {"cache.lookups", d.cache_lookups},
          {"cache.hits", d.hits},              {"cache.misses", d.misses},
          {"cache.coalesced", d.coalesced},    {"cache.evictions", d.evictions},
          {"server.decodes", d.decodes},       {"server.retries", d.retries},
          {"server.prefetch_issued", d.prefetch_issued},
          {"server.prefetch_hits", d.prefetch_hits},
          {"server.prefetch_waste", d.prefetch_waste},
          {"server.swaps_accepted", d.swaps_accepted}};
      for (const auto& [name, value] : counts)
        metrics[name] = {static_cast<double>(value), "count", "traced phase"};

      for (const auto& [name, reading] : run_probes(args.seed, out_dir, traced.spans))
        metrics[name] = {reading.value, reading.unit, "probe"};
      const std::string stem = out_dir + "/trace-" + w->name;
      if (!write_trace_files(traced.spans, stem + ".chrome.json", stem + ".spans.json"))
        throw std::runtime_error("cannot write trace files under " + out_dir);
      print_metrics("per-layer (traced phase + probes):", metrics);
      std::printf("  untraced %.1f ns/fetch/reader, traced %.1f ns/fetch/reader\n", plain_ns,
                  traced_ns);
      std::printf("  server.hit_ns_1r probes the loop bench/tab_server reports as "
                  "\"hot lookup\"\n");
      std::printf("  chrome trace: %s.chrome.json\n", stem.c_str());
    }

    const double steal_share =
        (host_steal_s() - steal_begin) /
        (static_cast<double>(now_ns() - run_begin) / 1e9 * static_cast<double>(host.nproc));
    std::printf("host steal: %.2f%% of CPU time during the run\n", 100.0 * steal_share);
    const bool correct = mismatched == 0 && layer_problem.empty();
    write_record(out_dir + "/result-" + w->name + "-trace" + (args.trace ? "1" : "0") + ".json",
                 *w, host, args, metrics, attempted, failed, correct, steal_share);
    if (mismatched != 0)
      std::fprintf(stderr, "perfbench: %llu fetches served wrong bytes\n",
                   static_cast<unsigned long long>(mismatched));
    if (!layer_problem.empty())
      std::fprintf(stderr, "perfbench: workload does not exercise its layer: %s\n",
                   layer_problem.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
    std::fflush(stdout);
    w.reset();
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
