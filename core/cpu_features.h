// Runtime CPU feature detection for the kernel dispatch layer
// (core/kernels_dispatch.h): CPUID leaves 1 and 7 for AVX/FMA/AVX2/
// AVX-512F, plus XGETBV to confirm the OS actually saves the wide
// register state — an AVX2 bit without OSXSAVE+YMM-state enablement
// means executing a VEX instruction faults, so both sides are required
// before a wide tier may be selected.
//
// Header-only and dependency-free; compiles to "no features" on
// non-x86 targets, which degrades the dispatcher to the generic tier
// (the build likewise compiles the wide tiers' TUs at generic codegen
// there; see dpc_kernel_tier() in the root CMakeLists).
#ifndef DPC_CORE_CPU_FEATURES_H_
#define DPC_CORE_CPU_FEATURES_H_

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define DPC_CPU_X86 1
#endif

namespace dpc {

/// The instruction-set facts the kernel tiers care about. `avx2`/`fma`/
/// `avx512f` are raw CPUID bits; `os_avx`/`os_avx512` fold in the
/// XGETBV check that the OS context-switches the matching register
/// state. A tier is usable only when both the CPU and the OS sides
/// hold (see Avx2TierUsable / Avx512TierUsable).
struct CpuFeatures {
  bool osxsave = false;   ///< CPUID.1:ECX.OSXSAVE — XGETBV executable
  bool avx = false;       ///< CPUID.1:ECX.AVX
  bool fma = false;       ///< CPUID.1:ECX.FMA
  bool avx2 = false;      ///< CPUID.7.0:EBX.AVX2
  bool avx512f = false;   ///< CPUID.7.0:EBX.AVX512F
  bool os_avx = false;    ///< XCR0 saves XMM+YMM state
  bool os_avx512 = false; ///< XCR0 additionally saves opmask+ZMM state
};

inline CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if defined(DPC_CPU_X86)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  // Leaf 1 ECX: FMA bit 12, OSXSAVE bit 27, AVX bit 28. Literal masks —
  // the bit_* macros in <cpuid.h> vary across toolchain vintages.
  f.fma = (ecx & (1u << 12)) != 0;
  f.osxsave = (ecx & (1u << 27)) != 0;
  f.avx = (ecx & (1u << 28)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    // Leaf 7.0 EBX: AVX2 bit 5, AVX512F bit 16.
    f.avx2 = (ebx & (1u << 5)) != 0;
    f.avx512f = (ebx & (1u << 16)) != 0;
  }
  if (f.osxsave) {
    // XGETBV(0) — encoded directly so no -mxsave target flag is needed;
    // only executed behind the OSXSAVE check above.
    uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__ __volatile__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    const uint64_t xcr0 =
        (static_cast<uint64_t>(xcr0_hi) << 32) | static_cast<uint64_t>(xcr0_lo);
    f.os_avx = (xcr0 & 0x6) == 0x6;  // bits 1 (SSE) + 2 (AVX)
    // Bits 5..7: opmask, ZMM_Hi256, Hi16_ZMM — all three or AVX-512
    // instructions fault.
    f.os_avx512 = f.os_avx && (xcr0 & 0xE0) == 0xE0;
  }
#endif
  return f;
}

/// The avx2 kernel tier needs AVX2 + FMA present and YMM state saved.
/// (FMA is detected and required for uniformity with real AVX2 parts;
/// the accumulate path never contracts into it — see the bit-identity
/// rule in core/kernels_tier_impl.inc.)
inline bool Avx2TierUsable(const CpuFeatures& f) {
  return f.avx && f.avx2 && f.fma && f.os_avx;
}

/// The avx512 kernel tier needs AVX-512F and full ZMM/opmask state on
/// top of everything the avx2 tier needs.
inline bool Avx512TierUsable(const CpuFeatures& f) {
  return Avx2TierUsable(f) && f.avx512f && f.os_avx512;
}

}  // namespace dpc

#endif  // DPC_CORE_CPU_FEATURES_H_
