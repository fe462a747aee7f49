#include "probes.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "core/mapped.h"
#include "isa/mips/mips.h"
#include "layout/layout.h"
#include "memsys/cache.h"
#include "memsys/ebr.h"
#include "memsys/selfheal.h"
#include "server/server.h"
#include "support/serialize.h"
#include "verify/verify.h"
#include "workload/mips_gen.h"
#include "workload/profile.h"
#include "workload/trace.h"
#include "workload/x86_gen.h"
#include "workloads.h"

namespace perfbench {

using namespace ccomp;

namespace {

constexpr std::uint32_t kBlockSize = 32;
constexpr int kRounds = 15;  // each probe reports the median round

/// Records one probe's whole run, from `begin` to now, as a span.
void add_span(std::vector<SpanRec>& spans, const char* name, std::uint64_t parent,
              std::uint64_t begin) {
  spans.push_back(SpanRec{name, 0, parent + spans.size() + 1, parent, begin, now_ns()});
}

/// Times `rounds` calls of `body`, returning the median round in ns and
/// recording the probe's whole run as one span.
template <typename Fn>
double median_round_ns(const char* span, std::vector<SpanRec>& spans, std::uint64_t parent,
                       Fn&& body, int rounds = kRounds) {
  std::vector<double> ns;
  const std::uint64_t begin = now_ns();
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  add_span(spans, span, parent, begin);
  return median(std::move(ns));
}

struct Kit {
  std::vector<std::uint8_t> mips;
  std::vector<std::uint32_t> function_starts;
  workload::Profile mips_profile{};
  std::vector<std::uint8_t> x86;
};

Kit make_kit(std::uint64_t seed) {
  Kit kit;
  kit.mips_profile = *workload::find_profile("go");
  kit.mips_profile.code_kb = 32;
  kit.mips_profile.seed = mix(seed, 11);
  workload::MipsProgram prog = workload::generate_mips_program(kit.mips_profile);
  kit.mips = mips::words_to_bytes(prog.words);
  kit.function_starts = std::move(prog.function_starts);
  workload::Profile x = *workload::find_profile("vortex");
  x.code_kb = 32;
  x.seed = mix(seed, 12);
  kit.x86 = workload::generate_x86_program(x).bytes;
  return kit;
}

}  // namespace

std::map<std::string, Reading> run_probes(std::uint64_t seed, const std::string& work_dir,
                                         std::vector<SpanRec>& spans) {
  std::map<std::string, Reading> m;
  const std::uint64_t root = std::uint64_t{0xffff} << 40;
  const std::uint64_t begin = now_ns();
  const Kit kit = make_kit(seed);

  // Codec decode: block_into over every block with a reused scratch.
  const CodecId ids[] = {CodecId::kSamcRangeK1, CodecId::kSamcRansK4, CodecId::kSadcMips,
                         CodecId::kSadcX86, CodecId::kByteHuff};
  const char* const decode_names[] = {"samc.range_k1.decode_ns", "samc.rans_k4.decode_ns",
                                      "sadc.mips.decode_ns", "sadc.x86.decode_ns",
                                      "baseline.bytehuff.decode_ns"};
  std::vector<std::unique_ptr<core::BlockCodec>> codecs;
  std::vector<core::CompressedImage> images;
  for (std::size_t i = 0; i < 5; ++i) {
    codecs.push_back(make_codec(ids[i]));
    images.push_back(codecs[i]->compress(ids[i] == CodecId::kSadcX86 ? kit.x86 : kit.mips));
    const core::CompressedImage& img = images[i];
    const auto dec = codecs[i]->make_decompressor(img);
    core::DecodeScratch scratch;
    std::vector<std::uint8_t> out(4 * kBlockSize);
    const std::size_t blocks = img.block_count();
    const double ns = median_round_ns(decode_names[i], spans, root, [&] {
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t len = img.block_original_size(b);
        if (out.size() < len) out.resize(len);
        dec->block_into(b, std::span<std::uint8_t>(out.data(), len), scratch);
      }
    });
    m[decode_names[i]] = {ns / static_cast<double>(blocks), "ns"};
  }
  const core::CompressedImage& samc = images[0];
  const core::BlockCodec& samc_codec = *codecs[0];
  const std::size_t samc_blocks = samc.block_count();

  // Self-heal ladder: decode + golden CRC check per block, no faults.
  {
    memsys::SelfHealingMemorySystem::Options opts;
    opts.cache.line_bytes = kBlockSize;
    opts.cache.size_bytes = kBlockSize * opts.cache.associativity * 16;
    memsys::SelfHealingMemorySystem heal(opts, samc_codec, samc);
    std::vector<std::uint8_t> out;
    const double ns = median_round_ns("selfheal.read_block", spans, root, [&] {
      for (std::size_t b = 0; b < samc_blocks; ++b) heal.read_block_into(b, out);
    });
    m["selfheal.read_block_ns"] = {ns / static_cast<double>(samc_blocks), "ns"};
  }

  // Single-reader server hit (comparable to tab_server's "hot lookup").
  {
    server::ImageServer::Options opts;
    opts.prefetch = false;
    server::ImageServer srv(opts);
    const std::string name = "probe";
    srv.load(name, samc_codec, samc);
    for (std::uint32_t b = 0; b < samc_blocks; ++b) (void)srv.fetch(name, b);
    const double ns = median_round_ns("server.fetch_1r", spans, root, [&] {
      for (std::uint32_t b = 0; b < samc_blocks; ++b) (void)srv.fetch(name, b);
    });
    m["server.hit_ns_1r"] = {ns / static_cast<double>(samc_blocks), "ns"};
  }

  // EBR pin/unpin.
  {
    constexpr int kPins = 200'000;
    const double ns = median_round_ns("ebr.guard", spans, root, [&] {
      for (int i = 0; i < kPins; ++i) {
        memsys::ebr::Guard guard;
        if (!guard.active()) break;
      }
    });
    m["ebr.guard_ns"] = {ns / kPins, "ns"};
  }

  // Standalone ShardedBlockCache: lock-free try_get, publish, invalidate.
  {
    constexpr std::uint32_t kKeys = 1024;
    const auto bytes = std::make_shared<const std::vector<std::uint8_t>>(kBlockSize, 0xA5);
    auto fill = [&](memsys::ShardedBlockCache& cache, std::uint64_t epoch) {
      for (std::uint32_t b = 0; b < kKeys; ++b) {
        const memsys::BlockKey key{epoch, b};
        auto ticket = cache.acquire(key);
        if (ticket.leader) cache.publish(key, ticket.flight, bytes, false, true);
      }
    };
    memsys::ShardedBlockCache cache(memsys::ShardedCacheConfig{});
    fill(cache, 1);
    const double get_ns = median_round_ns("cache.try_get", spans, root, [&] {
      for (std::uint32_t b = 0; b < kKeys; ++b) (void)cache.try_get({1, b});
    });
    m["cache.try_get_ns"] = {get_ns / kKeys, "ns"};

    std::uint64_t epoch = 100;
    std::vector<double> publish;
    const std::uint64_t pub_begin = now_ns();
    for (int r = 0; r < kRounds; ++r, ++epoch) {
      std::uint64_t total = 0;
      for (std::uint32_t b = 0; b < kKeys; ++b) {
        const memsys::BlockKey key{epoch, b};
        auto ticket = cache.acquire(key);
        const std::uint64_t t0 = now_ns();
        cache.publish(key, ticket.flight, bytes, false, true);
        total += now_ns() - t0;
      }
      publish.push_back(static_cast<double>(total) / kKeys);
      cache.invalidate_epoch(epoch);
    }
    add_span(spans, "cache.publish", root, pub_begin);
    m["cache.publish_ns"] = {median(publish), "ns"};

    std::vector<double> inval;
    const std::uint64_t inv_begin = now_ns();
    for (int r = 0; r < kRounds; ++r, ++epoch) {
      fill(cache, epoch);
      const std::uint64_t t0 = now_ns();
      cache.invalidate_epoch(epoch);
      inval.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    add_span(spans, "cache.invalidate_epoch", root, inv_begin);
    m["cache.invalidate_epoch_us"] = {median(inval), "us"};
  }

  // Layout: predictor lookup and tier shares of a trained plan.
  {
    const std::size_t blocks = (kit.mips.size() + kBlockSize - 1) / kBlockSize;
    workload::Profile train = kit.mips_profile;
    train.seed = mix(seed, 13);
    workload::TraceOptions topts;
    topts.length = 200'000;
    const auto addresses =
        workload::generate_trace(train, kit.function_starts, kit.mips.size() / 4, topts);
    const auto profile = layout::AccessProfile::from_trace(addresses, kBlockSize, blocks);
    const layout::PlacementPlan plan =
        layout::optimize_layout(profile, kit.mips.size(), kBlockSize, layout::LayoutOptions{});
    std::size_t predicted = 0;
    const double ns = median_round_ns("layout.predicted", spans, root, [&] {
      for (std::uint32_t s = 0; s < plan.block_count; ++s) predicted += plan.predicted(s).size();
    });
    m["layout.predicted_ns"] = {ns / static_cast<double>(plan.block_count), "ns"};
    if (predicted == 0) throw std::logic_error("layout probe: the plan predicts nothing");
    std::size_t hot = 0, warm = 0;
    for (const layout::Tier t : plan.tiers) {
      hot += t == layout::Tier::kHot;
      warm += t == layout::Tier::kWarm;
    }
    const auto slots = static_cast<double>(plan.block_count);
    m["layout.tier_hot_share"] = {static_cast<double>(hot) / slots, "ratio"};
    m["layout.tier_warm_share"] = {static_cast<double>(warm) / slots, "ratio"};
  }

  // Container: mmap open, first view (lazy section CRCs), verifier.
  {
    ByteSink sink;
    core::serialize_aligned(samc, sink);
    const std::string path = work_dir + "/probe-samc-k1.ccma";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(sink.view().data()),
                static_cast<std::streamsize>(sink.size()));
    }
    const double open_ns = median_round_ns("core.mapped_open", spans, root, [&] {
      const core::MappedImage mapped = core::MappedImage::open(path);
      (void)mapped.block_size();
    });
    m["core.mapped_open_us"] = {open_ns / 1e3, "us"};

    std::vector<double> view;
    const std::uint64_t view_begin = now_ns();
    for (int r = 0; r < kRounds; ++r) {
      const core::MappedImage mapped = core::MappedImage::open(path);
      const std::uint64_t t0 = now_ns();
      const core::CompressedImage img = mapped.view_image();
      view.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    add_span(spans, "core.view_image", root, view_begin);
    m["core.view_image_us"] = {median(view), "us"};

    const double verify_ns = median_round_ns(
        "verify.image", spans, root,
        [&] {
          for (const core::CompressedImage& img : images) (void)verify::verify_image(img);
        },
        5);
    m["verify.image_ms"] = {verify_ns / 1e6 / static_cast<double>(images.size()), "ms"};
  }

  spans.push_back(SpanRec{"probes", 0, root, 0, begin, now_ns()});
  return m;
}

}  // namespace perfbench
