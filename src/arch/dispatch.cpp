// Runtime kernel selection: cpuid probe, NUMARCK_ARCH override, and the
// force_level hook the ISA-sweep tests and benchmarks use.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "kernels_common.hpp"
#include "numarck/arch/arch.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::arch {

namespace {

/// True when the running CPU can execute `level`'s instruction set.
bool cpu_supports(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Level::kAvx512:
      // The Skylake-X common subset the AVX-512 TU is compiled against, plus
      // AVX2 for the slots its table inherits from the AVX2 table.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512cd") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#endif
    default:
      return false;
  }
}

/// The kernel table for `level`, or nullptr when that TU was not built
/// (wrong target arch, or the compiler lacked the -m flags). The first call
/// for a SIMD level builds its table in code compiled with that level's
/// flags, so call this only once cpu_supports(level) holds.
const Kernels* table_for(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return scalar_kernel_table();
#ifdef NUMARCK_ARCH_HAVE_AVX2
    case Level::kAvx2:
      return avx2_kernel_table();
#endif
#ifdef NUMARCK_ARCH_HAVE_AVX512
    case Level::kAvx512:
      return avx512_kernel_table();
#endif
    default:
      return nullptr;
  }
}

constexpr Level kAllLevels[] = {Level::kScalar, Level::kAvx2, Level::kAvx512};

struct Dispatch {
  const Kernels* active = nullptr;
  Level detected = Level::kScalar;
  bool env_override = false;     ///< NUMARCK_ARCH applied at startup
  std::string env_value;
};

Dispatch init_dispatch() {
  Dispatch d;
  for (Level l : kAllLevels) {
    if (level_supported(l)) d.detected = l;
  }
  d.active = table_for(d.detected);
  if (const char* env = std::getenv("NUMARCK_ARCH")) {
    Level requested;
    if (!parse_level(env, requested)) {
      std::fprintf(stderr,
                   "numarck: NUMARCK_ARCH=%s not recognized "
                   "(scalar|avx2|avx512); using %s\n",
                   env, to_string(d.detected));
    } else if (!level_supported(requested)) {
      std::fprintf(stderr,
                   "numarck: NUMARCK_ARCH=%s not supported on this machine; "
                   "using %s\n",
                   env, to_string(d.detected));
    } else {
      d.active = table_for(requested);
      d.env_override = requested != d.detected;
      d.env_value = env;
    }
  }
  return d;
}

Dispatch& dispatch() {
  static Dispatch d = init_dispatch();
  return d;
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_level(std::string_view name, Level& out) noexcept {
  for (Level l : kAllLevels) {
    if (name == to_string(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

Level detect_best() noexcept { return dispatch().detected; }

bool level_supported(Level level) noexcept {
  // cpu_supports first: table_for may run `level`'s instructions.
  return cpu_supports(level) && table_for(level) != nullptr;
}

std::vector<Level> available_levels() {
  std::vector<Level> out;
  for (Level l : kAllLevels) {
    if (level_supported(l)) out.push_back(l);
  }
  return out;
}

const Kernels& active() noexcept { return *dispatch().active; }

Level active_level() noexcept { return dispatch().active->level; }

void force_level(Level level) {
  NUMARCK_EXPECT(level_supported(level),
                 "arch: forced level not supported on this machine");
  dispatch().active = table_for(level);
}

std::string describe() {
  const Dispatch& d = dispatch();
  std::string out = "arch: active=";
  out += to_string(d.active->level);
  out += " detected=";
  out += to_string(d.detected);
  out += " available=";
  bool first = true;
  for (Level l : available_levels()) {
    if (!first) out += ",";
    out += to_string(l);
    first = false;
  }
  if (d.env_override) {
    out += " override=";
    out += d.env_value;
    out += " (NUMARCK_ARCH)";
  }
  out += " kernels=classify,change_ratios,decode_span,unpack,count_ones,"
         "fpc_xor_lzc,rans_decode";
  return out;
}

}  // namespace numarck::arch
