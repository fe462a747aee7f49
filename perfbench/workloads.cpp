#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "baseline/bytehuff.h"
#include "harness.h"
#include "isa/mips/mips.h"
#include "layout/layout.h"
#include "sadc/sadc.h"
#include "samc/samc.h"
#include "support/serialize.h"
#include "workload/mips_gen.h"
#include "workload/profile.h"
#include "workload/trace.h"
#include "workload/x86_gen.h"

namespace perfbench {

using namespace ccomp;

namespace {

constexpr std::uint32_t kBlockSize = 32;  // every image: one 32-byte cache line per block

// Salts keep the sub-seeds of one run independent of each other.
enum Salt : std::uint64_t { kProgramSalt = 1, kTrainSalt = 2, kReplaySalt = 3, kUniformSalt = 4 };

struct Program {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> function_starts;  // word indices (MIPS only)
  workload::Profile profile{};
};

Program mips_program(const char* profile_name, std::uint32_t kb, std::uint64_t seed) {
  Program p;
  p.profile = *workload::find_profile(profile_name);
  p.profile.code_kb = kb;
  p.profile.seed = seed;
  workload::MipsProgram prog = workload::generate_mips_program(p.profile);
  p.bytes = mips::words_to_bytes(prog.words);
  p.function_starts = std::move(prog.function_starts);
  return p;
}

Program x86_program(const char* profile_name, std::uint32_t kb, std::uint64_t seed) {
  Program p;
  p.profile = *workload::find_profile(profile_name);
  p.profile.code_kb = kb;
  p.profile.seed = seed;
  p.bytes = workload::generate_x86_program(p.profile).bytes;
  return p;
}

/// `segments` traces of `program`, each `length` instructions and seeded
/// separately, concatenated. generate_trace draws its hot function set from
/// the trace seed, so several short segments average over hot sets instead
/// of letting one draw decide the whole run.
std::vector<std::uint32_t> trace_addresses(const Program& program, std::uint64_t seed,
                                           std::size_t segments, std::size_t length) {
  std::vector<std::uint32_t> addresses;
  addresses.reserve(segments * length);
  for (std::size_t s = 0; s < segments; ++s) {
    workload::Profile profile = program.profile;
    profile.seed = mix(seed, s);
    workload::TraceOptions opts;
    opts.length = length;
    const std::vector<std::uint32_t> segment = workload::generate_trace(
        profile, program.function_starts, program.bytes.size() / 4, opts);
    addresses.insert(addresses.end(), segment.begin(), segment.end());
  }
  return addresses;
}

/// Original block indices those traces touch, in fetch order, with
/// consecutive repeats collapsed (a refill engine fetches a line once per
/// miss, not once per instruction).
std::vector<std::uint32_t> trace_blocks(const Program& program, std::uint64_t seed,
                                        std::size_t segments, std::size_t length) {
  std::vector<std::uint32_t> blocks;
  for (const std::uint32_t a : trace_addresses(program, seed, segments, length)) {
    const std::uint32_t b = a / kBlockSize;
    if (blocks.empty() || blocks.back() != b) blocks.push_back(b);
  }
  return blocks;
}

/// Round-robin `per_image` streams into one reader stream, `chunk` fetches
/// from each image at a time (a refill engine switching between programs).
/// Every image contributes the same number of fetches — the shortest
/// stream's length — so the mix stays even over the whole stream.
std::vector<Access> interleave(const std::vector<std::vector<std::uint32_t>>& per_image,
                               std::size_t chunk) {
  std::size_t len = per_image.front().size();
  for (const auto& s : per_image) len = std::min(len, s.size());
  std::vector<Access> out;
  out.reserve(len * per_image.size());
  for (std::size_t base = 0; base < len; base += chunk)
    for (std::size_t i = 0; i < per_image.size(); ++i)
      for (std::size_t k = base; k < std::min(len, base + chunk); ++k)
        out.push_back(Access{static_cast<std::uint32_t>(i), per_image[i][k]});
  return out;
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

const core::BlockCodec& codec_for(Workload& w, CodecId id) {
  const auto slot = static_cast<std::size_t>(id);
  if (w.codecs.size() <= slot) w.codecs.resize(slot + 1);
  if (!w.codecs[slot]) w.codecs[slot] = make_codec(id);
  return *w.codecs[slot];
}

/// Compress `program` (through `plan` when given), write its aligned
/// container, load it into the server (from the mapped container when
/// `mapped`), and record where each served block's bytes sit in `program`.
ServedImage& add_image(Workload& w, const std::string& work_dir, std::string name, CodecId id,
                       std::vector<std::uint8_t> program, bool mapped,
                       const layout::PlacementPlan* plan = nullptr) {
  ServedImage& img = w.images.emplace_back();
  img.name = std::move(name);
  img.codec_id = id;
  img.codec = &codec_for(w, id);
  img.program = std::move(program);
  img.original_bytes = img.program.size();
  img.mapped = mapped;
  img.image = plan ? layout::build_tiered_image(*img.codec, img.program, *plan)
                   : img.codec->compress(img.program);
  ByteSink classic;
  img.image.serialize(classic);
  img.container_bytes = classic.size();
  ByteSink aligned;
  core::serialize_aligned(img.image, aligned);
  img.container_path = work_dir + "/" + w.name + "-" + img.name + ".ccma";
  write_file(img.container_path, aligned.view());
  if (mapped) {
    w.mappings.push_back(std::make_unique<core::MappedImage>(
        core::MappedImage::open(img.container_path)));
    img.image = w.mappings.back()->view_image();
    w.server->load(img.name, *img.codec, core::MappedImage::open(img.container_path));
  } else {
    w.server->load(img.name, *img.codec, img.image);
  }

  const std::size_t blocks = img.image.block_count();
  img.block_offset.resize(blocks);
  img.block_len.resize(blocks);
  std::vector<std::uint32_t> orig_of;
  if (img.image.has_layout()) orig_of = layout::plan_from_image(img.image).orig_of();
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!orig_of.empty()) {
      const std::size_t off = std::size_t{orig_of[b]} * kBlockSize;
      img.block_offset[b] = static_cast<std::uint32_t>(off);
      img.block_len[b] = static_cast<std::uint32_t>(std::min<std::size_t>(
          kBlockSize, img.program.size() - off));
    } else {
      img.block_offset[b] = static_cast<std::uint32_t>(img.image.block_original_offset(b));
      img.block_len[b] = static_cast<std::uint32_t>(img.image.block_original_size(b));
    }
  }
  w.fingerprint = fnv(w.fingerprint, img.program.data(), img.program.size());
  return img;
}

/// Give `img` a second encoding with the same block geometry.
void add_alternative(Workload& w, ServedImage& img, CodecId id) {
  img.alt_codec = &codec_for(w, id);
  img.alt_image = img.alt_codec->compress(img.program);
  if (img.alt_image->block_count() != img.image.block_count())
    throw std::logic_error("alternative encoding of " + img.name + " has other blocks");
  for (std::size_t b = 0; b < img.image.block_count(); ++b)
    if (img.alt_image->block_original_offset(b) != img.block_offset[b])
      throw std::logic_error("alternative encoding of " + img.name + " has other blocks");
}

void finish_streams(Workload& w) {
  w.cursor.assign(w.streams.size(), 0);
  std::unordered_set<std::uint64_t> touched;
  for (const auto& stream : w.streams) {
    for (const Access& a : stream) touched.insert((std::uint64_t{a.image} << 32) | a.block);
    w.fingerprint = fnv(w.fingerprint, stream.data(), stream.size() * sizeof(Access));
  }
  w.touched_blocks = touched.size();
}

/// Fetch every block the streams touch once, so the cache holds each of
/// them before timing starts (when it has room).
void warm_touched(Workload& w) {
  std::vector<std::vector<bool>> seen(w.images.size());
  for (std::size_t i = 0; i < w.images.size(); ++i)
    seen[i].assign(w.images[i].block_offset.size(), false);
  for (const auto& stream : w.streams) {
    for (const Access& a : stream) {
      if (seen[a.image][a.block]) continue;
      seen[a.image][a.block] = true;
      (void)w.server->fetch(w.images[a.image].name, a.block);
    }
  }
}

/// Replay the first `count` accesses of every stream (single thread).
void warm_replay(Workload& w, std::size_t count) {
  for (std::size_t r = 0; r < w.streams.size(); ++r) {
    const auto& stream = w.streams[r];
    const std::size_t n = std::min(count, stream.size());
    for (std::size_t k = 0; k < n; ++k)
      (void)w.server->fetch(w.images[stream[k].image].name, stream[k].block);
    w.cursor[r] = n % stream.size();
  }
}

void start_server(Workload& w) {
  w.server = std::make_unique<server::ImageServer>(w.options);
}

// ---------------------------------------------------------------------------

/// Skewed trace replay over three plain MIPS images that all stay resident:
/// every timed fetch is a cache hit.
void build_hot_resident(Workload& w, const std::string& dir, unsigned cpus) {
  const unsigned readers = std::max(1u, cpus);
  w.loop = "closed loop, " + std::to_string(readers) + " readers, no writer";
  start_server(w);
  const struct {
    const char* name;
    const char* profile;
    CodecId codec;
  } specs[] = {{"hot-samc-k1", "go", CodecId::kSamcRangeK1},
               {"hot-rans-k4", "gcc", CodecId::kSamcRansK4},
               {"hot-sadc", "perl", CodecId::kSadcMips}};
  std::vector<Program> programs;
  for (std::size_t i = 0; i < 3; ++i) {
    programs.push_back(mips_program(specs[i].profile, 32, mix(w.seed, kProgramSalt, i)));
    add_image(w, dir, specs[i].name, specs[i].codec, programs.back().bytes, false);
  }
  for (unsigned r = 0; r < readers; ++r) {
    std::vector<std::vector<std::uint32_t>> per_image;
    for (std::size_t i = 0; i < programs.size(); ++i)
      per_image.push_back(trace_blocks(programs[i], mix(w.replay_seed, r, i), 8, 15'000));
    w.streams.push_back(interleave(per_image, 64));
  }
  finish_streams(w);
  warm_touched(w);
}

/// Uniform-random fetches over five images (one per decode engine) whose
/// decompressed size is ten times the cache: nearly every fetch decodes.
void build_cold_miss(Workload& w, const std::string& dir, unsigned cpus) {
  const unsigned readers = std::max(1u, cpus);
  w.loop = "closed loop, " + std::to_string(readers) + " readers, no writer";
  constexpr std::uint32_t kKb = 64;
  constexpr std::size_t kImages = 5;
  // Capacity is a tenth of the decompressed working set.
  w.options.cache.capacity_bytes = kImages * kKb * 1024 / 10;
  start_server(w);
  const struct {
    const char* name;
    const char* profile;
    CodecId codec;
  } specs[kImages] = {{"cold-samc-k1", "go", CodecId::kSamcRangeK1},
                      {"cold-rans-k4", "gcc", CodecId::kSamcRansK4},
                      {"cold-sadc-mips", "perl", CodecId::kSadcMips},
                      {"cold-sadc-x86", "vortex", CodecId::kSadcX86},
                      {"cold-bytehuff", "ijpeg", CodecId::kByteHuff}};
  for (std::size_t i = 0; i < kImages; ++i) {
    const std::uint64_t s = mix(w.seed, kProgramSalt, i);
    Program p = specs[i].codec == CodecId::kSadcX86 ? x86_program(specs[i].profile, kKb, s)
                                                    : mips_program(specs[i].profile, kKb, s);
    add_image(w, dir, specs[i].name, specs[i].codec, std::move(p.bytes), false);
  }
  for (unsigned r = 0; r < readers; ++r) {
    std::vector<Access> stream(1u << 18);
    std::uint64_t state = mix(w.replay_seed, kUniformSalt, r);
    for (Access& a : stream) {
      state = mix(state);
      a.image = static_cast<std::uint32_t>(state % kImages);
      a.block = static_cast<std::uint32_t>((state >> 20) % w.images[a.image].block_offset.size());
    }
    w.streams.push_back(std::move(stream));
  }
  finish_streams(w);
  // Two cache-fulls of stream prefix: the cache is full and evicting.
  warm_replay(w, 2 * w.options.cache.capacity_bytes / kBlockSize / readers);
}

/// Sequential trace replay over profile-laid-out, tiered images with the
/// trained prefetcher on; the cache holds about half the touched blocks.
void build_trace_prefetch(Workload& w, const std::string& dir, unsigned cpus) {
  const unsigned readers = std::max(1u, cpus - 1);
  w.loop = "closed loop, " + std::to_string(readers) + " readers + prefetch worker, no writer";
  w.options.prefetch = true;
  const struct {
    const char* name;
    const char* profile;
    CodecId codec;
  } specs[] = {{"pf-samc-k1", "go", CodecId::kSamcRangeK1},
               {"pf-rans-k4", "gcc", CodecId::kSamcRansK4},
               {"pf-samc-k1-b", "perl", CodecId::kSamcRangeK1},
               {"pf-rans-k4-b", "vortex", CodecId::kSamcRansK4}};
  constexpr std::uint32_t kKb = 64;
  std::vector<Program> programs;
  std::vector<layout::PlacementPlan> plans;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    programs.push_back(mips_program(specs[i].profile, kKb, mix(w.seed, kProgramSalt, i)));
    const Program& p = programs.back();
    const std::size_t blocks = (p.bytes.size() + kBlockSize - 1) / kBlockSize;
    const auto addresses = trace_addresses(p, mix(w.train_seed, i), 8, 50'000);
    const auto profile = layout::AccessProfile::from_trace(addresses, kBlockSize, blocks);
    layout::LayoutOptions lo;
    lo.hot_fraction = 0.05;
    lo.warm_fraction = 0.10;
    lo.predictor_k = 2;
    lo.cluster = true;
    plans.push_back(layout::optimize_layout(profile, p.bytes.size(), kBlockSize, lo));
  }
  // Streams first: the cache capacity depends on how many blocks they touch.
  for (unsigned r = 0; r < readers; ++r) {
    std::vector<std::vector<std::uint32_t>> per_image;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      std::vector<std::uint32_t> blocks =
          trace_blocks(programs[i], mix(w.replay_seed, r, i), 8, 25'000);
      for (std::uint32_t& b : blocks) b = plans[i].slot_of[b];
      per_image.push_back(std::move(blocks));
    }
    w.streams.push_back(interleave(per_image, 256));
  }
  finish_streams(w);
  w.options.cache.capacity_bytes = std::max<std::size_t>(w.touched_blocks * kBlockSize / 2, 4096);
  start_server(w);
  for (std::size_t i = 0; i < programs.size(); ++i)
    add_image(w, dir, specs[i].name, specs[i].codec, programs[i].bytes, false, &plans[i]);
  warm_replay(w, 20'000);
}

/// Skewed trace replay over three images while a writer hot-swaps each
/// image between two encodings of the same program on a fetch-count
/// schedule; one image is served from an mmap'd v3.1 container.
void build_swap_churn(Workload& w, const std::string& dir, unsigned cpus) {
  const unsigned readers = std::max(1u, cpus - 1);
  w.loop = "closed loop, " + std::to_string(readers) + " readers + 1 swap writer";
  w.writer = true;
  w.swap_every = 200'000;
  start_server(w);
  const struct {
    const char* name;
    const char* profile;
    CodecId codec;
    CodecId alt;
    bool mapped;
  } specs[] = {{"swap-samc-k1", "go", CodecId::kSamcRangeK1, CodecId::kSamcRansK4, false},
               {"swap-sadc", "gcc", CodecId::kSadcMips, CodecId::kSamcRangeK1, false},
               {"swap-mapped-rans-k4", "perl", CodecId::kSamcRansK4, CodecId::kByteHuff, true}};
  std::vector<Program> programs;
  for (std::size_t i = 0; i < 3; ++i) {
    programs.push_back(mips_program(specs[i].profile, 32, mix(w.seed, kProgramSalt, i)));
    ServedImage& img =
        add_image(w, dir, specs[i].name, specs[i].codec, programs.back().bytes, specs[i].mapped);
    add_alternative(w, img, specs[i].alt);
  }
  w.swapped.assign(w.images.size(), false);
  for (unsigned r = 0; r < readers; ++r) {
    std::vector<std::vector<std::uint32_t>> per_image;
    for (std::size_t i = 0; i < programs.size(); ++i)
      per_image.push_back(trace_blocks(programs[i], mix(w.replay_seed, r, i), 8, 15'000));
    w.streams.push_back(interleave(per_image, 64));
  }
  finish_streams(w);
  warm_touched(w);
}

}  // namespace

const char* codec_label(CodecId id) {
  switch (id) {
    case CodecId::kSamcRangeK1: return "samc.range_k1";
    case CodecId::kSamcRansK4: return "samc.rans_k4";
    case CodecId::kSadcMips: return "sadc.mips";
    case CodecId::kSadcX86: return "sadc.x86";
    case CodecId::kByteHuff: return "baseline.bytehuff";
  }
  return "?";
}

std::unique_ptr<core::BlockCodec> make_codec(CodecId id) {
  switch (id) {
    case CodecId::kSamcRangeK1: return std::make_unique<samc::SamcCodec>(samc::mips_defaults());
    case CodecId::kSamcRansK4: {
      samc::SamcOptions o = samc::mips_defaults();
      o.entropy_coder = samc::EntropyCoder::kRans;
      o.entropy_streams = 4;
      return std::make_unique<samc::SamcCodec>(o);
    }
    case CodecId::kSadcMips: return std::make_unique<sadc::SadcMipsCodec>();
    case CodecId::kSadcX86: return std::make_unique<sadc::SadcX86Codec>();
    case CodecId::kByteHuff: return std::make_unique<baseline::ByteHuffmanCodec>();
  }
  throw std::logic_error("unknown codec id");
}

bool ServedImage::matches(std::uint32_t block, std::span<const std::uint8_t> bytes) const {
  return block < block_len.size() && bytes.size() == block_len[block] &&
         std::memcmp(bytes.data(), program.data() + block_offset[block], bytes.size()) == 0;
}

double Workload::compression_ratio() const {
  std::size_t original = 0, stored = 0;
  for (const ServedImage& img : images) {
    original += img.original_bytes;
    stored += img.container_bytes;
  }
  return original == 0 ? 0.0 : static_cast<double>(stored) / static_cast<double>(original);
}

std::size_t Workload::decompressed_bytes() const {
  std::size_t total = 0;
  for (const ServedImage& img : images) total += img.original_bytes;
  return total;
}

std::size_t Workload::block_count() const {
  std::size_t total = 0;
  for (const ServedImage& img : images) total += img.block_offset.size();
  return total;
}

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"hot_resident", "cold_miss",
                                                      "trace_prefetch", "swap_churn"};
  return names;
}

std::unique_ptr<Workload> build_workload(std::string_view name, std::uint64_t seed,
                                         const std::string& work_dir, unsigned cpus) {
  auto w = std::make_unique<Workload>();
  w->name = std::string(name);
  w->seed = seed;
  w->train_seed = mix(seed, kTrainSalt);
  w->replay_seed = mix(seed, kReplaySalt);
  w->fingerprint = 0xcbf29ce484222325ULL;
  w->options.prefetch = false;
  if (name == "hot_resident") build_hot_resident(*w, work_dir, cpus);
  else if (name == "cold_miss") build_cold_miss(*w, work_dir, cpus);
  else if (name == "trace_prefetch") build_trace_prefetch(*w, work_dir, cpus);
  else if (name == "swap_churn") build_swap_churn(*w, work_dir, cpus);
  else throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  return w;
}

}  // namespace perfbench
