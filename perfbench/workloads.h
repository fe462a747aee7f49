// The four serving workloads. Each builds its programs, images, server and
// reader access streams from the run seed alone; README.md documents their
// sizes and why each exists.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/codec.h"
#include "core/mapped.h"
#include "server/server.h"

namespace perfbench {

/// The five decode engines the benchmark exercises.
enum class CodecId { kSamcRangeK1, kSamcRansK4, kSadcMips, kSadcX86, kByteHuff };
const char* codec_label(CodecId id);
std::unique_ptr<ccomp::core::BlockCodec> make_codec(CodecId id);

/// One image name served by the workload's server.
struct ServedImage {
  std::string name;
  CodecId codec_id = CodecId::kSamcRangeK1;
  const ccomp::core::BlockCodec* codec = nullptr;
  /// The encoding loaded at set-up (for an mmap-loaded image: a view over
  /// `Workload::mappings`, kept for swapping back).
  ccomp::core::CompressedImage image;
  /// Alternative encoding of the same program with identical block
  /// geometry (swap_churn's writer toggles between the two).
  const ccomp::core::BlockCodec* alt_codec = nullptr;
  std::optional<ccomp::core::CompressedImage> alt_image;
  bool mapped = false;          // loaded from the v3.1 aligned container
  std::string container_path;   // that container on disk
  std::size_t original_bytes = 0;
  std::size_t container_bytes = 0;  // classic serialized container
  /// The generated program and, per served block index (a physical slot
  /// for layout images), where its bytes sit in the program.
  std::vector<std::uint8_t> program;
  std::vector<std::uint32_t> block_offset;
  std::vector<std::uint32_t> block_len;

  bool matches(std::uint32_t block, std::span<const std::uint8_t> bytes) const;
};

struct Access {
  std::uint32_t image = 0;
  std::uint32_t block = 0;
};

struct Workload {
  std::string name;
  std::string loop;  // closed-loop description for the report
  std::uint64_t seed = 0;
  std::uint64_t train_seed = 0;   // layout training trace (trace_prefetch)
  std::uint64_t replay_seed = 0;  // reader trace streams
  ccomp::server::ImageServer::Options options;
  std::vector<std::unique_ptr<ccomp::core::BlockCodec>> codecs;
  std::vector<std::unique_ptr<ccomp::core::MappedImage>> mappings;
  std::vector<ServedImage> images;
  std::vector<std::vector<Access>> streams;  // one per reader
  std::vector<std::size_t> cursor;           // per-reader stream position
  bool writer = false;                       // swap_churn's hot-swap writer
  std::uint64_t swap_every = 0;              // fetches between swaps
  std::vector<bool> swapped;                 // per image: serving alt_image
  std::size_t touched_blocks = 0;            // distinct blocks the streams touch
  std::uint64_t fingerprint = 0;             // hash of every generated input
  /// Declared last so it is destroyed first: it references the codecs and
  /// mappings above.
  std::unique_ptr<ccomp::server::ImageServer> server;

  double compression_ratio() const;
  std::size_t decompressed_bytes() const;
  std::size_t block_count() const;
};

const std::vector<std::string_view>& workload_names();

/// Generate, compress, write containers under `work_dir`, load, and warm
/// up. `cpus` is the host's usable CPU count; each workload derives its
/// thread split from it. Throws on an unknown name.
std::unique_ptr<Workload> build_workload(std::string_view name, std::uint64_t seed,
                                         const std::string& work_dir, unsigned cpus);

}  // namespace perfbench
