/**
 * @file
 * The traced run's view into serving: one micro-batch through the
 * public calls that serve::Engine composes (serve::coalesce,
 * serve::executeBatch), with forward and scatter separated.
 */

#ifndef HECTOR_BENCHMARK_SERVE_COMMON_HH
#define HECTOR_BENCHMARK_SERVE_COMMON_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "serve/micro_batch.hh"

namespace hbench
{

/**
 * Serve @p reqs as one micro-batch: serve::coalesce, then
 * serve::executeBatch with the pooled context @p ctx on @p rt, timed as
 * "coalesce" and "execute_batch". Then, outside the operation, on the
 * @p scratch device and its context @p sctx: CompiledModel::forward
 * alone on the same batch ("forward"; scatter is execute_batch minus
 * forward) and the step-by-step forward (the exec.* layers), both
 * checked bit-identical to the batch's output. Also counts "batches"
 * and "batch_requests". Returns executeBatch's per-request outputs.
 */
std::vector<hector::tensor::Tensor>
tracedBatch(const hector::core::CompiledModel &plan,
            const std::vector<const hector::serve::Request *> &reqs,
            hector::models::WeightMap &weights, hector::sim::Runtime &rt,
            hector::core::ExecutionContext &ctx,
            hector::sim::Runtime &scratch,
            hector::core::ExecutionContext &sctx, LayerTimes &layers,
            const std::string &model, Result &res);

/** Set the serve.* / exec.* / sim.* / mem.* per-layer metrics from the
 *  layer table of @p rounds traced rounds (per-call means for
 *  serve.*, per-round sums for exec.*). */
void reportServeLayers(const LayerTimes &layers, double rounds,
                       const hector::sim::Runtime &rt, Result &res);

} // namespace hbench

#endif // HECTOR_BENCHMARK_SERVE_COMMON_HH
