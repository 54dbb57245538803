/**
 * @file
 * Output checks made apart from the program: every verdict comes from
 * models::reference* (plain loops over the graph, no IR, no passes, no
 * shared kernels) or from bitwise comparison with an already checked
 * output. Each check returns "" when it passes and a reason when it
 * rejects, so the harness can also feed it deliberately perturbed
 * values and require a rejection (the self-tests).
 */

#ifndef HECTOR_BENCHMARK_CHECKS_HH
#define HECTOR_BENCHMARK_CHECKS_HH

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/hetero_graph.hh"
#include "models/models.hh"
#include "tensor/tensor.hh"

namespace hbench
{

/**
 * Float tolerance of a program output against the reference: every
 * element must satisfy |out - ref| <= kRefTol * (1 + |ref|). The
 * program and the reference sum in different orders (and linear
 * reordering multiplies composed weights), so bit equality is not
 * expected; observed errors are about two orders of magnitude below
 * this bound.
 */
inline constexpr double kRefTol = 1e-4;

/** Largest |out - ref| / (1 + |ref|) over all elements (its index in
 *  @p at when given); NaN when any element is NaN. */
double scaledError(const hector::tensor::Tensor &out,
                   const hector::tensor::Tensor &ref,
                   std::size_t *at = nullptr);

/** "" when @p out matches @p ref within kRefTol, else the worst
 *  element. */
std::string compareToReference(const hector::tensor::Tensor &out,
                               const hector::tensor::Tensor &ref);

/** "" when @p a and @p b have the same shape and the same bits. */
std::string compareBits(const hector::tensor::Tensor &a,
                        const hector::tensor::Tensor &b);

/** Returns a copy of @p t with one element moved by one part in
 *  1e3 (the self-tests' perturbation). */
hector::tensor::Tensor perturbed(const hector::tensor::Tensor &t);

/** One weight tensor's directional derivative, program vs reference. */
struct DirectionalGrad
{
    std::string weight;
    double program = 0.0;
    double central = 0.0;
};

/**
 * Central-difference check of weight gradients. The loss is the mean
 * over rows of the summed reference output, whose gradient is the
 * 1/N seed that core::trainStep applies. For every weight tensor of
 * @p w, one direction D is drawn from @p rng (uniform in [-1, 1]);
 * the program's derivative along D is sum(grad * D), the reference's
 * is (L(w + eps D) - L(w - eps D)) / (2 eps).
 *
 * @param grads weight gradients one training step produced
 */
std::vector<DirectionalGrad>
directionalGradients(hector::models::ModelKind m,
                     const hector::graph::HeteroGraph &g,
                     const hector::models::WeightMap &w,
                     const hector::tensor::Tensor &feature,
                     const hector::models::WeightMap &grads,
                     std::mt19937_64 &rng, double eps = 1e-3);

/**
 * Relative tolerance of a directional derivative: the two agree when
 * |program - central| <= kGradRelTol * max(|program|, |central|) +
 * kGradAbsTol. Gradients of the message-path weights agree to about
 * 1e-3 relative; the attention-weight fault is 14% to 10x off.
 */
inline constexpr double kGradRelTol = 0.02;
inline constexpr double kGradAbsTol = 1e-7;

/** "" when every directional derivative agrees, else the first that
 *  does not. */
std::string judgeGradients(const std::vector<DirectionalGrad> &d);

} // namespace hbench

#endif // HECTOR_BENCHMARK_CHECKS_HH
