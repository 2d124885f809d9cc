#pragma once
// Kernel table for the runtime-dispatched SIMD layer (DESIGN.md §17).
//
// Each entry points at one of the three hot kernels compiled per-ISA
// (scalar / SSE2 / AVX2 / AVX-512) from the shared width-agnostic bodies in
// kernels_body.hpp.  Every variant is per-lane BIT-IDENTICAL to the scalar
// reference lane: the kernels use only IEEE-754 correctly-rounded operations
// (add/sub/mul/div/sqrt/max/min and exact conversions), the per-ISA TUs are
// compiled with -ffp-contract=off and never with -mfma, and any numeric path
// that intentionally differs must ship as a new versioned DrawProfile —
// never as a silent change (see mc_ssta.hpp).
//
// This header only declares the POD types and tables so that hot-path
// headers (timing/sta.hpp) can name them without pulling in dispatch state;
// use dispatch.hpp to obtain the active table.

#include <cstddef>
#include <cstdint>

namespace vipvt::simd {

/// Sentinel instance id for edges with a fixed (variation-free) delay.
/// Matches vipvt::kInvalidInst; sta.cpp static_asserts the equality.
inline constexpr std::uint32_t kInvalidRelaxInst = 0xffffffffu;

/// One timing edge in SoA relaxation form.  StaEngine aliases its internal
/// Edge to this type so edge arrays feed the kernels without conversion.
struct RelaxEdge {
  std::uint32_t from = 0;              // source node id
  std::uint32_t to = 0;                // destination node id
  std::uint32_t inst = kInvalidRelaxInst;  // owning instance, or sentinel
  float base_delay = 0.0f;             // nominal delay (ns)
};

/// Batched edge relaxation over an arrival SoA arena:
///   to[b] = max(to[b], from[b] + base * factor[inst][b])   (factored edges)
///   to[b] = max(to[b], from[b] + base)                     (fixed edges)
/// arrival_soa rows are node-major [num_nodes x width]; factor_soa rows are
/// instance-major [num_inst x width].
using RelaxEdgesFn = void (*)(const RelaxEdge* edges, std::size_t num_edges,
                              const double* factor_soa, double* arrival_soa,
                              std::size_t width);

/// Same relaxation against per-edge precomputed delays (the multi-base
/// escalation batch, StaEngine::analyze_batch_bases):
///   to[b] = max(to[b], from[b] + delay_soa[edge][b])
/// delay_soa rows are edge-major [num_edges x width]; the caller folds
/// every lane's own base (and factor, 1.0 for fixed edges) into the row.
using RelaxEdgesDelaysFn = void (*)(const RelaxEdge* edges,
                                    std::size_t num_edges,
                                    const double* delay_soa,
                                    double* arrival_soa, std::size_t width);

/// One draw tile through the DelayFactorTables rows (model draw transform):
/// for instance i < m and lane l < width,
///   lg = sys[i] + eps[l * eps_stride + i]     (eps is lane-major)
///   out[i * width + l] = eval_row(coef + row_off[i], lg)
/// reproducing DelayFactorTables::eval_row bit-for-bit (tables.hpp).
/// Vectors run along instances (contiguous eps/sys loads, one
/// coefficient-gather pair with per-instance row offsets) and a W x W
/// register transpose turns them into out's instance-major rows.
using DrawTransformFn = void (*)(const double* coef,
                                 const std::int32_t* row_off, double lo,
                                 double step, double inv_step,
                                 std::int32_t intervals, const double* sys,
                                 const double* eps, std::size_t eps_stride,
                                 double* out, std::size_t m,
                                 std::size_t width);

/// Counter-driven bulk Box–Muller fill behind Rng::normals_simd: writes
/// elements [begin, end) of the stream keyed by (key_r, key_t) to
/// out[0, end - begin).  Element i is a function of (keys, i) alone, so
/// any range equals the same slice of a full fill.  The log/sin/cos run
/// through the layer's own vector math so the output bits are identical
/// across ISAs, compilers and build flags.
using NormalsFillFn = void (*)(std::uint64_t key_r, std::uint64_t key_t,
                               double* out, std::size_t begin,
                               std::size_t end);

/// Elements per Box–Muller block (128 pairs): the unit normals_fill walks
/// a range in, and the draw tile of VariationModel's batched draw.
inline constexpr std::size_t kNormalsBlock = 256;

struct Kernels {
  RelaxEdgesFn relax_edges = nullptr;
  RelaxEdgesDelaysFn relax_edges_delays = nullptr;
  DrawTransformFn draw_transform = nullptr;
  NormalsFillFn normals_fill = nullptr;
};

// Per-ISA tables, defined in the matching kernels_<isa>.cpp TU.  The scalar
// table is always compiled; the others exist only when the build gates in
// src/util/CMakeLists.txt enabled their TU (VIPVT_SIMD_HAVE_*).
extern const Kernels kKernelsScalar;
#if defined(VIPVT_SIMD_HAVE_SSE2)
extern const Kernels kKernelsSse2;
#endif
#if defined(VIPVT_SIMD_HAVE_AVX2)
extern const Kernels kKernelsAvx2;
#endif
#if defined(VIPVT_SIMD_HAVE_AVX512)
extern const Kernels kKernelsAvx512;
#endif

}  // namespace vipvt::simd
