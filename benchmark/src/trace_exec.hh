/**
 * @file
 * The traced run's view into core::execute: the same steps, in the
 * same order, with the same zero lists, but issued one public call at
 * a time (ExecutionContext::materializeSlot, core::execGemm,
 * execTraversal, execFallback) so each op class can be timed. The
 * outputs must be bit-identical to the coarse CompiledModel::forward /
 * core::trainStep calls; the workloads check that.
 */

#ifndef HECTOR_BENCHMARK_TRACE_EXEC_HH
#define HECTOR_BENCHMARK_TRACE_EXEC_HH

#include <string>

#include "bench.hh"
#include "core/compiler.hh"

namespace hbench
{

/**
 * core::execute, step by step. Adds wall seconds to @p t under
 * "<dir>.gemm.<model>", "<dir>.traversal.<model>",
 * "<dir>.fallback.<model>" and "zero.<model>", where @p dir is "fwd"
 * or "bwd".
 */
void tracedExecute(const hector::core::Program &p,
                   const hector::core::LoweredFunction &fn,
                   hector::core::ExecutionContext &ctx, LayerTimes &t,
                   const std::string &dir, const std::string &model);

/** CompiledModel::forward through tracedExecute (inputs bound). */
hector::tensor::Tensor tracedForward(const hector::core::CompiledModel &m,
                                     hector::core::ExecutionContext &ctx,
                                     LayerTimes &t,
                                     const std::string &model);

/** core::trainStep through tracedExecute: bind, forward, the 1/N seed
 *  gradient and its loss-kernel charge, backward. */
hector::tensor::Tensor tracedTrainStep(const hector::core::CompiledModel &m,
                                       hector::core::ExecutionContext &ctx,
                                       const hector::tensor::Tensor &feature,
                                       LayerTimes &t,
                                       const std::string &model);

} // namespace hbench

#endif // HECTOR_BENCHMARK_TRACE_EXEC_HH
