// Fuzz target: the checkpoint container reader (header scan, record index,
// CRC-verified load) under both tail policies, and the restore behind it.
//
// kStrict must reject any structural damage with ContractViolation; kSalvage
// must additionally survive arbitrary tails, keeping every record before the
// damage loadable (or cleanly rejecting it on CRC/header failure). load()
// reads only a payload's header, so every loaded step of each variable is
// also pushed through a core::VariableReconstructor: the codec's deep,
// bounds-checked parse in decode stays fuzzed from the container surface.
// Container v2 records carry a codec-id byte: the scan must reject unknown
// codec ids and full records tagged with a temporal codec BEFORE sizing any
// allocation from the record (seeds: unknown_codec_id, full_temporal_codec),
// and v1 images (no codec byte) must keep parsing as implicit FPC/NUMARCK.
//
// The reader is backed by io::ContainerScanner over an io::MemorySource, so
// this target covers the whole-buffer policy/load surface; fuzz_scanner
// covers chunk-boundary invariance of the same scan.
#include <cstdint>

#include "numarck/core/compressor.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/util/expect.hpp"

namespace {

// Forged-count budget for the decode (as in fuzz_encoded_iteration): fully
// coded records have no bits-per-point floor, so a header count is not
// bounded by the input size, and decode materializes one double per point.
constexpr std::size_t kMaxPoints = std::size_t{1} << 21;

void probe(const numarck::io::CheckpointReader& reader) {
  const auto last = reader.last_complete_iteration();
  (void)last;
  for (const auto& v : reader.variables()) {
    numarck::core::VariableReconstructor rec;
    for (std::size_t it = 0; it < reader.iteration_count(); ++it) {
      if (!reader.info(v, it)) continue;
      try {
        const auto step = reader.load(v, it);
        if (step.point_count <= kMaxPoints) rec.push(step);
      } catch (const numarck::ContractViolation&) {
        // Torn payload / CRC mismatch / malformed record or stream / a delta
        // with no usable base — clean rejection.
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> image(data, size);
  try {
    const numarck::io::CheckpointReader reader(
        image, numarck::io::TailPolicy::kStrict);
    probe(reader);
  } catch (const numarck::ContractViolation&) {
  }
  try {
    const numarck::io::CheckpointReader reader(
        image, numarck::io::TailPolicy::kSalvage);
    probe(reader);
  } catch (const numarck::ContractViolation&) {
    // Salvage still rejects files whose *header* is damaged.
  }
  return 0;
}
