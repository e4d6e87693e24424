// Tier selection for the runtime kernel dispatch: CPUID/XGETBV
// detection (core/cpu_features.h), the DPC_FORCE_KERNEL_TIER override,
// and the published table pointer the kernels route through. Compiled
// with NO wide-arch flags — this TU only takes addresses of the tier
// tables, it never executes wide code itself.
#include "core/kernels_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/cpu_features.h"

namespace dpc::kernels {

namespace {

const KernelTable* TableFor(KernelTier tier) {
  switch (tier) {
    case KernelTier::kGeneric:
      return &tiers::generic::kTable;
    case KernelTier::kAvx2:
      return &tiers::avx2::kTable;
    case KernelTier::kAvx512:
      return &tiers::avx512::kTable;
  }
  return &tiers::generic::kTable;
}

std::atomic<int>& ActiveTierSlot() {
  static std::atomic<int> tier{static_cast<int>(KernelTier::kGeneric)};
  return tier;
}

bool& FellBackFlag() {
  static bool fell_back = false;
  return fell_back;
}

KernelTier WidestSupported(uint32_t mask) {
  for (int t = kNumKernelTiers - 1; t > 0; --t) {
    if ((mask & (1u << t)) != 0) return static_cast<KernelTier>(t);
  }
  return KernelTier::kGeneric;
}

}  // namespace

const char* TierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kGeneric:
      return "generic";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "?";
}

uint32_t SupportedTierMask() {
  static const uint32_t mask = [] {
    uint32_t m = 1u << static_cast<int>(KernelTier::kGeneric);
    const CpuFeatures f = DetectCpuFeatures();
    // DPC_KERNELS_<TIER>_UNAVAILABLE: the toolchain rejected the tier's
    // arch flags, so its TU holds generic codegen (root CMakeLists).
#if !defined(DPC_KERNELS_AVX2_UNAVAILABLE)
    if (Avx2TierUsable(f)) m |= 1u << static_cast<int>(KernelTier::kAvx2);
#endif
#if !defined(DPC_KERNELS_AVX512_UNAVAILABLE)
    if (Avx512TierUsable(f)) m |= 1u << static_cast<int>(KernelTier::kAvx512);
#endif
    return m;
  }();
  return mask;
}

KernelTier ChooseTier(const char* forced, uint32_t supported_mask,
                      bool* fell_back) {
  if (fell_back != nullptr) *fell_back = false;
  if (forced != nullptr && forced[0] != '\0') {
    for (int t = 0; t < kNumKernelTiers; ++t) {
      const auto tier = static_cast<KernelTier>(t);
      if (std::strcmp(forced, TierName(tier)) == 0) {
        if ((supported_mask & (1u << t)) != 0) return tier;
        break;  // known name, unsupported tier -> fall back
      }
    }
    if (fell_back != nullptr) *fell_back = true;
  }
  return WidestSupported(supported_mask);
}

std::vector<KernelTier> SupportedTiers() {
  std::vector<KernelTier> out;
  const uint32_t mask = SupportedTierMask();
  for (int t = 0; t < kNumKernelTiers; ++t) {
    if ((mask & (1u << t)) != 0) out.push_back(static_cast<KernelTier>(t));
  }
  return out;
}

KernelTier ActiveTier() {
  Active();  // force first-use resolution
  return static_cast<KernelTier>(
      ActiveTierSlot().load(std::memory_order_relaxed));
}

const char* ActiveTierName() { return TierName(ActiveTier()); }

bool SetActiveTier(KernelTier tier) {
  if ((SupportedTierMask() & (1u << static_cast<int>(tier))) == 0) {
    return false;
  }
  Active();  // resolve the override first so it cannot clobber this later
  ActiveTierSlot().store(static_cast<int>(tier), std::memory_order_relaxed);
  internal::ActiveSlot().store(TableFor(tier), std::memory_order_release);
  return true;
}

bool TierOverrideFellBack() {
  Active();  // the flag is set during first-use resolution
  return FellBackFlag();
}

namespace internal {

const KernelTable* InitActiveTable() {
  // Detection and the env read are idempotent, and every thread that
  // races here publishes the same table pointer — the benign-race-free
  // pattern: compute, then a single release store.
  static const KernelTable* const resolved = [] {
    bool fell_back = false;
    const KernelTier tier = ChooseTier(std::getenv("DPC_FORCE_KERNEL_TIER"),
                                       SupportedTierMask(), &fell_back);
    FellBackFlag() = fell_back;
    ActiveTierSlot().store(static_cast<int>(tier), std::memory_order_relaxed);
    return TableFor(tier);
  }();
  ActiveSlot().store(resolved, std::memory_order_release);
  return resolved;
}

}  // namespace internal

}  // namespace dpc::kernels
