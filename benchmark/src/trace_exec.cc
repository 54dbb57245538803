#include "trace_exec.hh"

#include <algorithm>

#include "core/autodiff.hh"
#include "core/executor.hh"

namespace hbench
{

using hector::core::LoweredFunction;
using hector::tensor::Tensor;

void
tracedExecute(const hector::core::Program &p, const LoweredFunction &fn,
              hector::core::ExecutionContext &ctx, LayerTimes &t,
              const std::string &dir, const std::string &model)
{
    const bool planned =
        ctx.plan() && fn.zeroSlotsBefore.size() == fn.order.size();
    const std::string gemm = dir + ".gemm." + model;
    const std::string trav = dir + ".traversal." + model;
    const std::string fall = dir + ".fallback." + model;
    const std::string zero = "zero." + model;
    for (std::size_t i = 0; i < fn.order.size(); ++i) {
        const double t0 = wallSec();
        if (planned)
            for (std::int32_t slot : fn.zeroSlotsBefore[i])
                ctx.materializeSlot(slot);
        const double t1 = wallSec();
        t.add(zero, t1 - t0);
        const auto &step = fn.order[i];
        switch (step.kind) {
          case LoweredFunction::Step::Kind::Gemm:
            hector::core::execGemm(p, fn.gemms[step.index], ctx);
            t.add(gemm, wallSec() - t1);
            break;
          case LoweredFunction::Step::Kind::Traversal:
            hector::core::execTraversal(p, fn.traversals[step.index], ctx);
            t.add(trav, wallSec() - t1);
            break;
          case LoweredFunction::Step::Kind::Fallback:
            hector::core::execFallback(p, fn.fallbacks[step.index], ctx);
            t.add(fall, wallSec() - t1);
            break;
        }
    }
}

Tensor
tracedForward(const hector::core::CompiledModel &m,
              hector::core::ExecutionContext &ctx, LayerTimes &t,
              const std::string &model)
{
    ctx.jit = m.jit.get();
    tracedExecute(m.forwardProgram, m.forwardFn, ctx, t, "fwd", model);
    return ctx.ensureTensor(m.forwardProgram, m.forwardProgram.outputVar);
}

Tensor
tracedTrainStep(const hector::core::CompiledModel &m,
                hector::core::ExecutionContext &ctx, const Tensor &feature,
                LayerTimes &t, const std::string &model)
{
    hector::core::bindInputs(m, ctx, feature);
    Tensor out = tracedForward(m, ctx, t, model);

    // The seed gradient and loss-kernel charge of core::trainStep.
    Tensor g(out.shape());
    const float scale =
        1.0f / static_cast<float>(std::max<std::int64_t>(1, out.dim(0)));
    for (std::size_t i = 0; i < g.numel(); ++i)
        g.data()[i] = scale;
    ctx.bindExternal(hector::core::gradOf(m.forwardProgram.outputVar),
                     std::move(g));
    hector::sim::KernelDesc loss;
    loss.name = "nll_loss";
    loss.category = hector::sim::KernelCategory::Elementwise;
    loss.phase = hector::sim::Phase::Forward;
    loss.flops = static_cast<double>(out.numel());
    loss.bytesRead = 4.0 * static_cast<double>(out.numel());
    loss.bytesWritten = loss.bytesRead;
    loss.workItems = static_cast<double>(out.numel());
    ctx.rt->launch(loss, nullptr);

    ctx.jit = m.jit.get();
    tracedExecute(m.backwardProgram, m.backwardFn, ctx, t, "bwd", model);
    return out;
}

} // namespace hbench
