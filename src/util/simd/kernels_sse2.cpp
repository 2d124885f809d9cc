// SSE2 (W=2) instantiation of the kernel bodies.  SSE2 is the x86-64
// baseline, so this TU needs no extra -m flags — only -ffp-contract=off
// to uphold the bit-identity contract (DESIGN.md §17).

#include "util/simd/kernels.hpp"

#if defined(VIPVT_SIMD_HAVE_SSE2)

#include "util/simd/kernels_body.hpp"
#include "util/simd/vec.hpp"

namespace vipvt::simd {
namespace {

using P = Sse2Policy;

void relax(const RelaxEdge* edges, std::size_t num_edges,
           const double* factor_soa, double* arrival_soa, std::size_t width) {
  relax_edges_body<P>(edges, num_edges, factor_soa, arrival_soa, width);
}

void relax_delays(const RelaxEdge* edges, std::size_t num_edges,
                  const double* delay_soa, double* arrival_soa,
                  std::size_t width) {
  relax_edges_delays_body<P>(edges, num_edges, delay_soa, arrival_soa, width);
}

void transform(const double* coef, const std::int32_t* row_off, double lo,
               double step, double inv_step, std::int32_t intervals,
               const double* sys, const double* eps, std::size_t eps_stride,
               double* out, std::size_t m, std::size_t width) {
  draw_transform_body<P>(coef, row_off, lo, step, inv_step, intervals, sys,
                         eps, eps_stride, out, m, width);
}

void normals(std::uint64_t key_r, std::uint64_t key_t, double* out,
             std::size_t begin, std::size_t end) {
  normals_fill_body<P>(key_r, key_t, out, begin, end);
}

}  // namespace

const Kernels kKernelsSse2{&relax, &relax_delays, &transform, &normals};

}  // namespace vipvt::simd

#endif  // VIPVT_SIMD_HAVE_SSE2
