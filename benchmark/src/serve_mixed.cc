/**
 * @file
 * serve_mixed: RGCN, RGAT and HGT variants in one serve::Engine,
 * serving one-hop sampled requests from the `mag` stand-in. Each
 * request is sampled (graph::sampleNeighbors + gatherFeatures) when it
 * is due and handed to Engine::submit; Engine::drain batches and
 * serves whatever is queued. A closed-loop phase measures saturation
 * throughput, a Poisson open-loop phase measures latency at a fixed
 * rate.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "checks.hh"
#include "core/compiler.hh"
#include "core/frontend.hh"
#include "core/jit.hh"
#include "graph/datasets.hh"
#include "graph/sampler.hh"
#include "models/reference.hh"
#include "serve/engine.hh"
#include "serve_common.hh"
#include "sim/device.hh"

namespace hbench
{

using hector::models::ModelKind;
using hector::tensor::Tensor;

namespace
{

constexpr const char *kDataset = "mag";
constexpr double kScale = 1.0 / 16.0;
constexpr std::int64_t kDim = 32;
constexpr int kSetupReps = 3;
/**
 * The graph is the workload's dataset: generated with this fixed seed
 * in every run, so runs differ only in the inputs drawn from --seed
 * (features, weights, the request streams and their arrival times).
 */
constexpr std::uint64_t kGraphSeed = 0x3a9f00d;
/**
 * Open-loop latency percentiles are medians over windows of this many
 * requests (about a quarter of a second; see windowedPercentile). A
 * window's p99 is then its largest latency, so the reported p99 sits
 * near the 97th percentile of all requests; with windows of 200 the
 * p99 was dominated by the host's stalls and its spread over ten seeds
 * reached 0.27 (see README.md).
 */
constexpr std::size_t kLatencyWindow = 25;
/** Requests per closed-loop round: each round samples and submits this
 *  many, then drains them. */
constexpr int kClients = 24;
/**
 * Open-loop arrival rate as a share of the closed-loop throughput the
 * same run measured just before, so the open loop runs at a fixed
 * utilization and its latency scales with the service time instead of
 * swinging with the host's speed. Arriving one at a time, requests
 * reach the engine in batches of one or two, which pay each batch's
 * fixed costs that a 24-request round shares among about six
 * requests: 0.1 of the closed-loop rate is about 0.2 of what the open
 * loop can serve; at 0.2 more requests queued behind each other and
 * the p99 moved more between runs (see README.md). This ties the
 * open-loop latencies to req_per_s: a change that speeds up only
 * batched serving raises the offered rate, which the traced run
 * reports as loadgen.offered_req_per_s (see README.md).
 */
constexpr double kOpenLoad = 0.1;

hector::serve::ServingConfig
servingConfig(std::uint64_t seed, int v)
{
    hector::serve::ServingConfig c;
    c.maxBatch = 8;
    c.sample.numSeeds = 8;
    c.sample.fanout = 4;
    c.compile.compactMaterialization = true;
    c.compile.linearReorder = true;
    c.din = kDim;
    c.dout = kDim;
    c.seed = subSeed(seed, 100 + static_cast<std::uint64_t>(v));
    return c;
}

struct State
{
    hector::graph::HeteroGraph g;
    Tensor features;
    hector::sim::Runtime rt{hector::sim::makeScaledSpec(kScale)};
    std::unique_ptr<hector::serve::Engine> engine;
    double generateSec = 0.0;

    explicit State(hector::graph::HeteroGraph graph) : g(std::move(graph)) {}
};

/** One request of the workload: its variant and its sampling stream. */
struct Arrival
{
    int variant = 0;
    std::uint64_t sampleSeed = 0;
    double dueSec = 0.0;
};

/** The i-th request of stream @p stream: variant and sampling seed. */
Arrival
makeArrival(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    Arrival a;
    a.sampleSeed = subSeed(subSeed(seed, stream), i);
    a.variant = static_cast<int>(a.sampleSeed % 3);
    return a;
}

hector::graph::Minibatch
sample(const State &s, const Arrival &a)
{
    std::mt19937_64 rng(a.sampleSeed);
    return hector::graph::sampleNeighbors(
        s.g, s.engine->variantConfig(a.variant).sample, rng);
}

/** Graph, host features, engine, variants, and one warm-up request per
 *  variant so every plan is compiled and JIT-attached. */
std::unique_ptr<State>
setUp(std::uint64_t seed)
{
    const double t0 = wallSec();
    auto s = std::make_unique<State>(hector::graph::generate(
        hector::graph::datasetSpec(kDataset), kScale, kGraphSeed));
    s->generateSec = wallSec() - t0;
    std::mt19937_64 rng(subSeed(seed, 2));
    s->features = Tensor::uniform({s->g.numNodes(), kDim}, rng, 1.0f);
    s->engine = std::make_unique<hector::serve::Engine>(
        s->g, hector::serve::EngineConfig{}, s->rt);
    for (int v = 0; v < 3; ++v)
        s->engine->registerVariant(modelTag(kModels[v]), s->features,
                                   modelSource(kModels[v]),
                                   servingConfig(seed, v));
    for (int v = 0; v < 3; ++v) {
        Arrival a = makeArrival(seed, 9, static_cast<std::uint64_t>(v));
        a.variant = v;
        hector::graph::Minibatch mb = sample(*s, a);
        Tensor f = hector::graph::gatherFeatures(mb, s->features);
        s->engine->submit(v, std::move(mb), std::move(f));
    }
    s->engine->drain();
    return s;
}

/** A served request, kept for the reference check after timing. */
struct Served
{
    Arrival arrival;
    Tensor out;
};

/** Sample, gather and submit @p a; returns the engine's request id. */
std::uint64_t
admit(State &s, const Arrival &a)
{
    hector::graph::Minibatch mb = sample(s, a);
    Tensor f = hector::graph::gatherFeatures(mb, s.features);
    return s.engine->submit(a.variant, std::move(mb), std::move(f));
}

/** Drain and keep every served request's output. */
hector::serve::ServingReport
drainInto(State &s, std::vector<std::pair<std::uint64_t, Arrival>> &queued,
          std::vector<Served> &served, Result &res)
{
    hector::serve::ServingReport rep = s.engine->drain();
    for (const auto &[id, a] : queued) {
        const Tensor *t = s.engine->result(id);
        if (!t) {
            res.fail("request " + std::to_string(id) + " has no result");
            continue;
        }
        served.push_back({a, *t});
    }
    queued.clear();
    return rep;
}

struct ClosedLoop
{
    std::vector<double> roundMs;
    std::vector<double> modeledRoundMs;
    std::vector<double> modeledLatencyMs;
    std::vector<double> peakMiB; ///< tracked tensor peak per round
    std::size_t requests = 0;
    std::size_t batches = 0;
    double busySec = 0.0;
};

ClosedLoop
closedLoop(State &s, std::uint64_t seed, double budget, std::uint64_t &next,
           std::vector<Served> &served, Result &res)
{
    ClosedLoop c;
    std::vector<std::pair<std::uint64_t, Arrival>> queued;
    const double start = wallSec();
    while (wallSec() - start < budget || c.roundMs.empty()) {
        const double t0 = wallSec();
        for (int k = 0; k < kClients; ++k) {
            const Arrival a = makeArrival(seed, 10, next++);
            queued.emplace_back(admit(s, a), a);
        }
        s.rt.tracker().resetStats();
        const hector::serve::ServingReport rep =
            drainInto(s, queued, served, res);
        const double dt = wallSec() - t0;
        c.peakMiB.push_back(
            static_cast<double>(s.rt.tracker().peakBytes()) / 1048576.0);
        c.busySec += dt;
        c.roundMs.push_back(dt * 1e3);
        c.modeledRoundMs.push_back(rep.makespanMs);
        for (double l : s.engine->lastLatenciesMs())
            c.modeledLatencyMs.push_back(l);
        c.requests += rep.requests;
        c.batches += rep.batches;
    }
    return c;
}

struct OpenLoop
{
    std::vector<double> latencyMs;
    std::vector<double> lagMs;
    std::vector<double> queueWaitMs;
    double wallSec = 0.0;
};

/** Poisson arrivals at @p rate per second for @p budget seconds; each
 *  request is timed from when it was due to when its result is
 *  available. */
OpenLoop
openLoop(State &s, std::uint64_t seed, double rate, double budget,
         std::vector<Served> &served, Result &res)
{
    OpenLoop o;
    std::mt19937_64 rng(subSeed(seed, 20));
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(rate * budget)));
    std::vector<Arrival> arrivals;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - u(rng)) / rate;
        Arrival a = makeArrival(seed, 21, i);
        a.dueSec = t;
        arrivals.push_back(a);
    }

    std::vector<std::pair<std::uint64_t, Arrival>> queued;
    std::vector<double> submitted;
    const double start = wallSec();
    std::size_t next = 0;
    while (next < n || !queued.empty()) {
        if (queued.empty()) {
            // Idle: spin until the next request is due. Waking from a
            // sleep lagged (p99 3.4 ms against 1.4-2.0 ms spinning),
            // and the lag counts in the request's latency.
            while (wallSec() - start < arrivals[next].dueSec) {
            }
        }
        while (next < n && arrivals[next].dueSec <= wallSec() - start) {
            const Arrival &a = arrivals[next++];
            o.lagMs.push_back((wallSec() - start - a.dueSec) * 1e3);
            queued.emplace_back(admit(s, a), a);
            submitted.push_back(wallSec() - start);
        }
        const double drain_start = wallSec() - start;
        std::vector<std::pair<std::uint64_t, Arrival>> batch = queued;
        drainInto(s, queued, served, res);
        const double done = wallSec() - start;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            o.latencyMs.push_back((done - batch[i].second.dueSec) * 1e3);
            o.queueWaitMs.push_back((drain_start - submitted[i]) * 1e3);
        }
        submitted.clear();
    }
    o.wallSec = wallSec() - start;
    return o;
}

/** Every served request against the reference on its own subgraph,
 *  with the engine's weights of its variant. */
void
checkServed(State &s, const std::vector<Served> &served, Result &res)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < served.size(); ++i) {
        const Arrival &a = served[i].arrival;
        const hector::graph::Minibatch mb = sample(s, a);
        const Tensor f = hector::graph::gatherFeatures(mb, s.features);
        const Tensor ref = hector::models::referenceForward(
            kModels[static_cast<std::size_t>(a.variant)], mb.subgraph,
            s.engine->weights(a.variant), f);
        const std::string err = compareToReference(served[i].out, ref);
        if (!err.empty() && bad++ == 0)
            res.fail(std::string("served ") + modelTag(kModels[a.variant]) +
                     " request: " + err);
        if (i == 0)
            res.expectReject("served-request check",
                             compareToReference(perturbed(served[i].out),
                                                ref));
    }
    if (bad)
        res.fail(std::to_string(bad) + " of " +
                 std::to_string(served.size()) +
                 " served requests differ from the reference");
}

/** The traced closed loop: the same rounds, served through the finer
 *  public calls; every round's batch count and outputs are then checked
 *  against Engine::drain on the same requests. */
std::vector<double>
tracedClosedLoop(State &s, std::uint64_t seed, double budget,
                 std::uint64_t &next, LayerTimes &layers, Result &res)
{
    std::vector<double> round_ms;
    hector::sim::Runtime rt(hector::sim::makeScaledSpec(kScale));
    hector::sim::Runtime scratch(hector::sim::makeScaledSpec(kScale));
    std::vector<hector::core::ExecutionContext> ctx(3), sctx(3);
    double busy = 0.0;
    const double start = wallSec();
    while (wallSec() - start < budget || round_ms.empty()) {
        const double t0 = wallSec();
        double excluded = 0.0;
        std::vector<std::unique_ptr<hector::serve::Request>> reqs;
        std::vector<Arrival> arrivals;
        for (int k = 0; k < kClients; ++k) {
            const Arrival a = makeArrival(seed, 10, next++);
            const double a0 = wallSec();
            hector::graph::Minibatch mb = sample(s, a);
            const double a1 = wallSec();
            Tensor f = hector::graph::gatherFeatures(mb, s.features);
            const double a2 = wallSec();
            layers.add("sample", a1 - a0);
            layers.add("gather", a2 - a1);
            layers.add("sample_calls", 1.0);
            layers.add("sampled_edges",
                       static_cast<double>(mb.subgraph.numEdges()));
            reqs.push_back(std::make_unique<hector::serve::Request>(
                reqs.size(), std::move(mb), std::move(f),
                static_cast<std::uint32_t>(a.variant)));
            arrivals.push_back(a);
        }
        // Engine::drain's batching: per-variant FIFO chunks of maxBatch,
        // in order of their first request. The coarse drain below must
        // report as many batches, so these times stay those of the
        // batches the engine forms.
        std::vector<Tensor> outs(reqs.size());
        std::vector<std::vector<std::size_t>> chunks;
        for (int v = 0; v < 3; ++v) {
            const std::size_t cap = s.engine->variantConfig(v).maxBatch;
            std::vector<std::size_t> cur;
            for (std::size_t i = 0; i < reqs.size(); ++i)
                if (arrivals[i].variant == v) {
                    cur.push_back(i);
                    if (cur.size() == cap) {
                        chunks.push_back(cur);
                        cur.clear();
                    }
                }
            if (!cur.empty())
                chunks.push_back(cur);
        }
        std::sort(chunks.begin(), chunks.end(),
                  [](const auto &a, const auto &b) {
                      return a.front() < b.front();
                  });
        for (const std::vector<std::size_t> &chunk : chunks) {
            const int v = arrivals[chunk.front()].variant;
            const double p0 = wallSec();
            auto plan = s.engine->planCache().get(
                s.engine->planKey(v),
                []() -> hector::serve::PlanCache::Compiled {
                    throw std::runtime_error("resident plan missing");
                });
            layers.add("plan_get", wallSec() - p0);
            layers.add("plan_lookups", 1.0);
            std::vector<const hector::serve::Request *> batch;
            for (std::size_t i : chunk)
                batch.push_back(reqs[i].get());
            const double e0 = wallSec();
            const double before = layers.get("coalesce") +
                                  layers.get("execute_batch");
            std::vector<Tensor> o = tracedBatch(
                *plan, batch, s.engine->weights(v), rt, ctx[v], scratch,
                sctx[v], layers, modelTag(kModels[v]), res);
            excluded += (wallSec() - e0) -
                        (layers.get("coalesce") +
                         layers.get("execute_batch") - before);
            for (std::size_t j = 0; j < chunk.size(); ++j)
                outs[chunk[j]] = o[j];
        }
        const double dt = wallSec() - t0 - excluded;
        busy += dt;
        round_ms.push_back(dt * 1e3);

        // The coarse call on the same requests must give the same bits.
        std::vector<std::uint64_t> ids;
        for (std::size_t i = 0; i < reqs.size(); ++i)
            ids.push_back(s.engine->submit(arrivals[i].variant, reqs[i]->mb,
                                           reqs[i]->feature));
        const hector::serve::ServingReport rep = s.engine->drain();
        if (rep.batches != chunks.size() || rep.requests != reqs.size())
            res.fail("traced batching formed " +
                     std::to_string(chunks.size()) + " batches of " +
                     std::to_string(reqs.size()) +
                     " requests; Engine::drain formed " +
                     std::to_string(rep.batches) + " of " +
                     std::to_string(rep.requests));
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Tensor *t = s.engine->result(ids[i]);
            res.check("traced serving vs Engine::drain",
                      t ? compareBits(outs[i], *t) : "no engine result");
        }
    }
    layers.add("round_busy", busy);
    reportServeLayers(layers, static_cast<double>(round_ms.size()), rt, res);
    return round_ms;
}

} // namespace

void
runServeMixed(const Args &args, Result &res)
{
    std::vector<double> setups, gen;
    std::unique_ptr<State> s;
    for (int r = 0; r < kSetupReps; ++r) {
        s.reset();
        purgeJitArtifacts();
        const double t0 = wallSec();
        s = setUp(args.seed);
        setups.push_back(wallSec() - t0);
        gen.push_back(s->generateSec);
    }

    std::vector<Served> served;
    std::uint64_t next = 0;
    // Half the run each. The host's speed moves in phases of seconds:
    // a closed loop of a fifth of the run caught one or two of them,
    // and its round time and throughput spread 0.34 and 0.25 over ten
    // seeds. The open loop's windowed tail needs fewer samples.
    const double closed_budget =
        args.trace ? 0.25 * args.seconds : 0.5 * args.seconds;
    const ClosedLoop c =
        closedLoop(*s, args.seed, closed_budget, next, served, res);
    LayerTimes layers;
    std::vector<double> fine_round_ms;
    if (args.trace)
        fine_round_ms = tracedClosedLoop(*s, args.seed, closed_budget, next,
                                         layers, res);
    const double rate =
        kOpenLoad * static_cast<double>(c.requests) / c.busySec;
    const OpenLoop o =
        openLoop(*s, args.seed, rate, 0.5 * args.seconds, served, res);
    res.attempted = c.requests + o.latencyMs.size();

    checkServed(*s, served, res);

    if (!args.trace) {
        res.set("setup_s", median(setups));
        res.set("sweep_ms", median(c.roundMs));
        res.set("peak_tensor_mib", median(c.peakMiB));
        res.set("modeled_sweep_ms", median(c.modeledRoundMs));
        res.set("req_per_s", static_cast<double>(c.requests) / c.busySec);
        res.set("req_ms_p50",
                windowedPercentile(o.latencyMs, 0.5, kLatencyWindow));
        res.set("req_ms_p99",
                windowedPercentile(o.latencyMs, 0.99, kLatencyWindow));
        res.set("sim_req_per_s",
                static_cast<double>(res.attempted) / (c.busySec + o.wallSec));
        res.set("modeled_req_ms_p50", percentile(c.modeledLatencyMs, 0.5));
        res.set("modeled_req_ms_p99", percentile(c.modeledLatencyMs, 0.99));
        return;
    }

    // Plan compile and JIT attach, measured apart: the engine is gone
    // (its JIT modules unloaded) and the artifacts are purged, so the
    // attach compiles again as it did during set-up.
    s->engine.reset();
    purgeJitArtifacts();
    double compile = 0.0, attach = 0.0;
    for (ModelKind m : kModels) {
        const hector::serve::ServingConfig cfg = servingConfig(args.seed, 0);
        const double t0 = wallSec();
        hector::core::CompiledModel plan = hector::core::compile(
            hector::core::parseModel(modelSource(m), kDim, kDim), cfg.compile);
        const double t1 = wallSec();
        hector::core::jit::attach(plan);
        compile += t1 - t0;
        attach += wallSec() - t1;
    }
    res.set("graph.generate_s", median(gen));
    res.set("core.compile_ms", compile / 3.0 * 1e3);
    res.set("core.jit_attach_ms", attach / 3.0 * 1e3);
    res.set("core.jit_fallbacks",
            static_cast<double>(hector::core::jit::jitStats().fallbacks));
    res.set("serve.batch_requests",
            static_cast<double>(c.requests) /
                static_cast<double>(std::max<std::size_t>(1, c.batches)));
    res.set("serve.queue_wait_ms_p99", percentile(o.queueWaitMs, 0.99));
    res.set("loadgen.lag_ms_p99", percentile(o.lagMs, 0.99));
    res.set("loadgen.offered_req_per_s", rate);
    res.set("trace.overhead_pct",
            100.0 * (median(fine_round_ms) / median(c.roundMs) - 1.0));
    const double covered =
        layers.sumOf({"sample", "gather", "plan_get", "coalesce",
                      "execute_batch"});
    res.set("trace.coverage_pct",
            100.0 * covered / std::max(1e-12, layers.get("round_busy")));
}

} // namespace hbench
