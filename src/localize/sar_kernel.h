// SAR kernel layer: the matched-filter inner loop (paper Eq. 11-12) as a
// family of interchangeable kernels.
//
//   - `exact`  — the seed's libm loop, kept bit-identical so every golden
//                and serial-parity guarantee in the test suite still pins
//                the reference output.
//   - `fast`   — a blocked, data-parallel kernel: cells are processed in
//                lane-width blocks whose accumulators live in registers,
//                distances come from batched sqrt, and the per-sample
//                sin/cos pair — the innermost cost of the whole system —
//                is the branch-free polynomial sincos from common/simd.h.
//
// The fast kernel is compiled several times from one source
// (sar_kernel_impl.inc) under different target ISAs; a runtime-dispatch
// table picks the widest variant the CPU supports, down to a
// batched-scalar build where no SIMD ISA is compiled in. Variants are
// exposed individually so benches can sweep them and tests can
// cross-check them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rfly::localize {

/// Kernel selector, a first-class knob on LocalizerConfig, ScanMissionConfig
/// and the scenario format (`localize.sar_kernel = exact|fast`).
enum class SarKernel : std::uint8_t { kExact = 0, kFast = 1 };

/// "exact", "fast" (stable; used by the scenario serializer and the
/// --kernel bench flag).
const char* sar_kernel_name(SarKernel kernel);

/// Parse a kernel name; false on anything but the two names above.
bool parse_sar_kernel(const std::string& text, SarKernel& out);

/// The kernel that replaced a removed kernel name — "fast" for "auto" — or
/// nullptr when `text` never named a kernel. Lets parsers tell the owner
/// of an old scenario file or command line what to write instead.
const char* sar_kernel_replacement(const std::string& text);

/// Search-strategy selector for the localizers, orthogonal to SarKernel:
/// the kernel picks *how a cell is evaluated*, the search picks *which
/// cells are evaluated, and when*.
///
///   - `exact`       — the legacy batch sweep (full heatmap / brute-force
///                     volume scan), bit-identical to the seed.
///   - `incremental` — grow the same per-cell partial sums measurement by
///                     measurement through SarAccumulator (sar.h). Provably
///                     equivalent to the batch sweep — bit-identical with
///                     the exact kernel — and the mode that streams live
///                     per-waypoint estimates during a mission.
///   - `coarse2fine` — coarse lattice sweep, top-K candidate cells, then
///                     full-resolution refinement of each candidate's
///                     neighborhood; bounded against brute force by the
///                     property tests in tests/test_coarse2fine.cpp.
///
/// A first-class knob on LocalizerConfig, ScanMissionConfig and the
/// scenario format (`localize.search = exact|incremental|coarse2fine`).
enum class SarSearch : std::uint8_t {
  kExact = 0,
  kIncremental = 1,
  kCoarseToFine = 2,
};

/// "exact", "incremental", "coarse2fine" (stable; used by the scenario
/// serializer and the --search bench flag).
const char* sar_search_name(SarSearch search);

/// Parse a search-mode name; false on anything but the three names above.
bool parse_sar_search(const std::string& text, SarSearch& out);

/// Flat argument block for the fast-kernel entry points. Plain pointers
/// only: the kernel bodies are compiled under per-ISA target pragmas where
/// instantiating templates (std::vector and friends) could leak wide
/// instructions into code shared with baseline callers.
struct SarKernelArgs {
  double k = 0.0;              // round-trip wavenumber 2*pi*f*2/c
  const double* px = nullptr;  // trajectory positions, SoA, length count
  const double* py = nullptr;
  const double* pz = nullptr;
  const double* hre = nullptr;  // channel weights, split re/im, length count
  const double* him = nullptr;
  std::size_t count = 0;  // trajectory samples L
  const double* xs = nullptr;  // hoisted cell x coordinates, length nx
  std::size_t nx = 0;
  const double* ys = nullptr;  // hoisted row y coordinates
  double z = 0.0;              // heatmap plane height
  double* values = nullptr;    // full row-major heatmap, ny rows of nx
  double* scratch = nullptr;   // caller-owned, >= count doubles, per worker
  // Incremental-search extension (SarAccumulator): persistent per-cell
  // complex partial-sum planes, row-major like `values`.
  double* acc_re = nullptr;
  double* acc_im = nullptr;
};

/// One compiled variant of the fast kernel. `supported` is the runtime CPU
/// check; calling an unsupported variant is undefined (illegal instruction).
struct SarKernelVariant {
  const char* isa = "";    // "scalar", "sse2", "avx2", "avx512", "neon"
  bool supported = false;
  /// Evaluate heatmap rows [row_begin, row_end) into args.values.
  void (*rows)(const SarKernelArgs& args, std::size_t row_begin,
               std::size_t row_end) = nullptr;
  /// Evaluate the projection at a single point (lanes across trajectory
  /// samples; summation order differs from the exact kernel by design).
  double (*projection)(const SarKernelArgs& args, double x, double y,
                       double z) = nullptr;
  /// Batched sincos over n elements (bench/test surface for the sincos
  /// sweep; the row/projection kernels inline the same polynomial).
  void (*sincos)(const double* x, double* sins, double* coss,
                 std::size_t n) = nullptr;
  /// Add this batch's contribution to the partial-sum planes
  /// acc_re/acc_im for rows [row_begin, row_end). Each lane folds
  /// the batch in registers (same blocked layout and per-term arithmetic
  /// as `rows`) before touching the plane, so adding a whole aperture in
  /// one call, per-waypoint, or in any grouping yields identical bits.
  void (*accumulate)(const SarKernelArgs& args, std::size_t row_begin,
                     std::size_t row_end) = nullptr;
  /// Finalize partial sums to magnitudes for the rows:
  /// values[i] = sqrt(acc_re[i]^2 + acc_im[i]^2), same expression as the
  /// `rows` epilogue so a one-call accumulate + magnitudes round trip
  /// reproduces `rows` bit-for-bit.
  void (*magnitudes)(const SarKernelArgs& args, std::size_t row_begin,
                     std::size_t row_end) = nullptr;
};

/// Every variant compiled into this binary, narrowest first: batched
/// scalar (vectorization disabled), the baseline ISA, then any runtime-
/// dispatched widenings the build carries (x86: AVX2+FMA, AVX-512).
const std::vector<SarKernelVariant>& sar_kernel_variants();

/// The variant the dispatcher picked: the widest supported one, unless the
/// RFLY_SAR_ISA environment variable names a different supported variant
/// (a debugging/bench override; unknown or unsupported names are ignored).
const SarKernelVariant& sar_kernel_active();

}  // namespace rfly::localize
