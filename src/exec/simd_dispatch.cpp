// Process-wide dispatch for holms::exec::simd.  The active table resolves
// once, on first use, from HOLMS_SIMD + runtime CPU detection; kernels_for()
// exposes every compiled-in table so tests and benches can compare ISAs
// without re-execing.  HOLMS_SIMD_HAVE_AVX2 / HOLMS_SIMD_HAVE_NEON are set
// by exec/CMakeLists.txt exactly when the matching TU is in the build.

#include "exec/simd.hpp"

#include <cstdlib>
#include <string>
#include <string_view>

#include "exec/error.hpp"

namespace holms::exec::simd {

namespace detail {
const Kernels& scalar_kernels();
#if defined(HOLMS_SIMD_HAVE_AVX2)
const Kernels& avx2_kernels();
#endif
#if defined(HOLMS_SIMD_HAVE_NEON)
const Kernels& neon_kernels();
#endif
}  // namespace detail

bool isa_available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(HOLMS_SIMD_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(HOLMS_SIMD_HAVE_NEON)
      return true;  // baseline on every aarch64 this TU is built for
#else
      return false;
#endif
  }
  return false;
}

Isa best_isa() {
  if (isa_available(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_available(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

const Kernels& kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_kernels();
    case Isa::kAvx2:
#if defined(HOLMS_SIMD_HAVE_AVX2)
      if (isa_available(Isa::kAvx2)) return detail::avx2_kernels();
#endif
      return detail::scalar_kernels();
    case Isa::kNeon:
#if defined(HOLMS_SIMD_HAVE_NEON)
      if (isa_available(Isa::kNeon)) return detail::neon_kernels();
#endif
      return detail::scalar_kernels();
  }
  return detail::scalar_kernels();
}

const Kernels& kernels() {
  static const Kernels& resolved = []() -> const Kernels& {
    const char* raw = std::getenv("HOLMS_SIMD");
    const std::string_view v = raw != nullptr ? raw : "auto";
    if (v.empty() || v == "auto") return kernels_for(best_isa());
    if (v == "off" || v == "scalar") return kernels_for(Isa::kScalar);
    if (v == "avx2") return kernels_for(Isa::kAvx2);
    if (v == "neon") return kernels_for(Isa::kNeon);
    throw InvalidArgument("HOLMS_SIMD must be off|scalar|avx2|neon|auto, got '" +
                          std::string(v) + "'");
  }();
  return resolved;
}

}  // namespace holms::exec::simd
