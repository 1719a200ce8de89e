// The residue of the retired fast measurement plane. Only perfbench reads
// this header: `--list-isas` crosses forward_kernel_variants() with the SAR
// kernel table, and the `# env` stamp reports forward_kernel_active().isa.
// It goes when the benchmark is revised (ROADMAP item 5); nothing in the
// library, the benches or the tests calls it.
#pragma once

#include <vector>

namespace rfly::core {

struct ForwardKernelVariant {
  const char* isa = "";  // "scalar"
  bool supported = false;
};

/// One entry, "scalar", always supported: the ISA name the SAR kernel table
/// gives its unvectorized build.
inline const std::vector<ForwardKernelVariant>& forward_kernel_variants() {
  static const std::vector<ForwardKernelVariant> variants{{"scalar", true}};
  return variants;
}

/// The one entry above.
inline const ForwardKernelVariant& forward_kernel_active() {
  return forward_kernel_variants().front();
}

}  // namespace rfly::core
