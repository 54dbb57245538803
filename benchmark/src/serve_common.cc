#include "serve_common.hh"

#include <algorithm>
#include <cstring>

#include "checks.hh"
#include "trace_exec.hh"

namespace hbench
{

using hector::tensor::Tensor;

std::vector<Tensor>
tracedBatch(const hector::core::CompiledModel &plan,
            const std::vector<const hector::serve::Request *> &reqs,
            hector::models::WeightMap &weights, hector::sim::Runtime &rt,
            hector::core::ExecutionContext &ctx,
            hector::sim::Runtime &scratch,
            hector::core::ExecutionContext &sctx, LayerTimes &layers,
            const std::string &model, Result &res)
{
    hector::models::WeightMap grads;
    std::vector<Tensor> outs;
    hector::serve::MicroBatch batch = [&]() {
        auto scope = rt.memoryScope();
        const double t0 = wallSec();
        hector::serve::MicroBatch b = hector::serve::coalesce(reqs, rt);
        const double t1 = wallSec();
        outs = hector::serve::executeBatch(plan, b, weights, rt, ctx, grads,
                                           true);
        const double t2 = wallSec();
        layers.add("coalesce", t1 - t0);
        layers.add("execute_batch", t2 - t1);
        return b;
    }();
    layers.add("batches", 1.0);
    layers.add("batch_requests", static_cast<double>(reqs.size()));

    // Outside the operation: forward alone, then step by step.
    auto scope = scratch.memoryScope();
    hector::models::WeightMap sgrads;
    const double t3 = wallSec();
    sctx.reset(&batch.unionGraph, &batch.cmap, &scratch, &weights, &sgrads);
    sctx.adoptPlan(&plan.memoryPlan);
    hector::core::bindInputs(plan, sctx, batch.feature);
    const Tensor coarse = plan.forward(sctx).clone();
    layers.add("forward", wallSec() - t3);

    sctx.reset(&batch.unionGraph, &batch.cmap, &scratch, &weights, &sgrads);
    sctx.adoptPlan(&plan.memoryPlan);
    hector::core::bindInputs(plan, sctx, batch.feature);
    const Tensor fine = tracedForward(plan, sctx, layers, model);
    res.check(model + " step-by-step batch forward", compareBits(fine, coarse));

    // The batch's per-request outputs are rows of the forward output.
    for (std::size_t i = 0; i < reqs.size() && i < outs.size(); ++i) {
        const auto &rows = batch.localToUnion[i];
        for (std::size_t v = 0; v < rows.size(); ++v)
            if (std::memcmp(outs[i].row(static_cast<std::int64_t>(v)),
                            coarse.row(rows[v]),
                            static_cast<std::size_t>(coarse.dim(1)) *
                                sizeof(float)) != 0) {
                res.fail(model + ": executeBatch output differs from "
                                 "its forward");
                return outs;
            }
    }
    return outs;
}

void
reportServeLayers(const LayerTimes &layers, double rounds,
                  const hector::sim::Runtime &rt, Result &res)
{
    const double batches = std::max(1.0, layers.get("batches"));
    const double lookups = std::max(1.0, layers.get("plan_lookups"));
    const double calls = std::max(1.0, layers.get("sample_calls"));
    res.set("graph.sample_ms", layers.get("sample") / calls * 1e3);
    res.set("graph.gather_ms", layers.get("gather") / calls * 1e3);
    res.set("graph.sampled_edges", layers.get("sampled_edges") / calls);
    res.set("serve.coalesce_ms", layers.get("coalesce") / batches * 1e3);
    res.set("serve.forward_ms", layers.get("forward") / batches * 1e3);
    res.set("serve.scatter_ms",
            std::max(0.0, layers.get("execute_batch") -
                              layers.get("forward")) /
                batches * 1e3);
    res.set("serve.plan_get_ms", layers.get("plan_get") / lookups * 1e3);
    res.set("serve.batch_requests", layers.get("batch_requests") / batches);

    rounds = std::max(1.0, rounds);
    for (const std::string cls : {"gemm", "traversal", "fallback"}) {
        double total = 0.0;
        for (hector::models::ModelKind m : kModels) {
            const double v =
                layers.get("fwd." + cls + "." + modelTag(m)) / rounds;
            total += v;
            res.set("exec.fwd." + cls + "_ms." + modelTag(m), v * 1e3);
        }
        res.set("exec.fwd." + cls + "_ms", total * 1e3);
    }
    double zero = 0.0;
    for (hector::models::ModelKind m : kModels) {
        const double z = layers.get(std::string("zero.") + modelTag(m)) /
                         rounds;
        zero += z;
        res.set(std::string("exec.zero_ms.") + modelTag(m), z * 1e3);
    }
    res.set("exec.zero_ms", zero * 1e3);

    using hector::sim::KernelCategory;
    const auto &c = rt.counters();
    const double gemm = c.categoryTotal(KernelCategory::Gemm).timeSec;
    const double trav = c.categoryTotal(KernelCategory::Traversal).timeSec;
    res.set("sim.gemm_ms", gemm / rounds * 1e3);
    res.set("sim.traversal_ms", trav / rounds * 1e3);
    res.set("sim.other_ms", (rt.totalTimeSec() - gemm - trav) / rounds * 1e3);
    double gemm_wall = 0.0;
    for (hector::models::ModelKind m : kModels)
        gemm_wall += layers.get(std::string("fwd.gemm.") + modelTag(m));
    res.set("exec.gemm_gflops",
            gemm_wall > 0.0
                ? c.categoryTotal(KernelCategory::Gemm).flops / gemm_wall *
                      1e-9
                : 0.0);
    res.set("mem.peak_mib",
            static_cast<double>(rt.tracker().peakBytes()) / 1048576.0);
}

} // namespace hbench
