// Scalar (W=1) reference instantiation of the kernel bodies — the lane
// every other ISA table must match bit-for-bit (DESIGN.md §17).  Compiled
// with -ffp-contract=off like all kernel TUs so no FMA contraction can
// slip in even under -march overrides.

#include "util/simd/kernels.hpp"
#include "util/simd/kernels_body.hpp"
#include "util/simd/vec.hpp"

namespace vipvt::simd {
namespace {

using P = ScalarPolicy;

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

const Kernels kKernelsScalar{&relax, &relax_delays, &transform, &normals};

}  // namespace vipvt::simd
