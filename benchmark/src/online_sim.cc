/**
 * @file
 * serve_online_sim: the program's own OnlineServer in multi-tenant
 * Engine mode on a small graph. RGCN, RGAT and HGT lanes under the
 * "wfq" policy, MMPP + diurnal arrivals below modeled capacity,
 * resilience on (hedging over two streams), and a plan-cache budget
 * below the three plans' total so plans are evicted, recompiled and
 * re-attached to the JIT while serving. One round is one
 * OnlineServer::run over the same engine.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>

#include "bench.hh"
#include "checks.hh"
#include "graph/datasets.hh"
#include "models/reference.hh"
#include "serve/engine.hh"
#include "serve/online.hh"
#include "serve_common.hh"
#include "sim/device.hh"
#include "util/thread_pool.hh"

namespace hbench
{

using hector::tensor::Tensor;

namespace
{

constexpr const char *kDataset = "aifb";
constexpr double kScale = 1.0 / 16.0;
constexpr std::int64_t kDim = 16;
constexpr int kSetupReps = 5;
/** Fixed generation seed of the graph (the workload's dataset). */
constexpr std::uint64_t kGraphSeed = 0xa1fb;
/** Arrivals per variant per run, and their offered rates (requests
 *  per simulated second) — together well below modeled capacity. */
constexpr std::size_t kPerVariant = 50;
constexpr double kRates[3] = {2.0e5, 1.4e5, 0.6e5};
/** Per-arrival wall-time percentiles are medians over windows of this
 *  many runs (see windowedPercentile). */
constexpr std::size_t kRunWindow = 50;
/** Arrivals per variant of the pool-size bit-identity check. */
constexpr std::size_t kCheckPerVariant = 60;

hector::serve::ServingConfig
servingConfig(std::uint64_t seed, int v)
{
    hector::serve::ServingConfig c;
    c.maxBatch = 8;
    c.sample.numSeeds = 4;
    c.sample.fanout = 4;
    c.compile.compactMaterialization = true;
    c.compile.linearReorder = true;
    c.din = kDim;
    c.dout = kDim;
    c.seed = subSeed(seed, 100 + static_cast<std::uint64_t>(v));
    c.mmpp.enabled = true;
    c.mmpp.burstRateMultiplier = 3.0;
    c.diurnal.enabled = true;
    c.diurnal.amplitude = 0.5;
    c.diurnal.periodSec = 0.05;
    c.tenantWeight = static_cast<double>(1 << v);
    return c;
}

struct State
{
    hector::graph::HeteroGraph g;
    Tensor features;
    hector::sim::Runtime rt{hector::sim::makeScaledSpec(kScale)};
    std::unique_ptr<hector::serve::Engine> engine;
    std::size_t planBudget = 0;

    explicit State(hector::graph::HeteroGraph graph) : g(std::move(graph)) {}
};

/**
 * Graph, features, engine with two streams, variants, one warm-up
 * request per variant (compile + JIT), then the byte budget: the three
 * plans' total minus half the smallest, so the two largest fit and
 * the third evicts.
 */
std::unique_ptr<State>
setUp(std::uint64_t seed)
{
    auto s = std::make_unique<State>(hector::graph::generate(
        hector::graph::datasetSpec(kDataset), kScale, kGraphSeed));
    std::mt19937_64 rng(subSeed(seed, 2));
    s->features = Tensor::uniform({s->g.numNodes(), kDim}, rng, 1.0f);
    hector::serve::EngineConfig ec;
    ec.numStreams = 2;
    s->engine = std::make_unique<hector::serve::Engine>(s->g, ec, s->rt);
    for (int v = 0; v < 3; ++v)
        s->engine->registerVariant(modelTag(kModels[v]), s->features,
                                   modelSource(kModels[v]),
                                   servingConfig(seed, v));
    for (int v = 0; v < 3; ++v)
        s->engine->submit(v);
    s->engine->drain();
    std::size_t total = 0, smallest = SIZE_MAX;
    for (int v = 0; v < 3; ++v) {
        const std::size_t c =
            s->engine->planCache().costOf(s->engine->planKey(v));
        total += c;
        smallest = std::min(smallest, c);
    }
    s->planBudget = total - smallest / 2;
    s->engine->planCache().setBudgetBytes(s->planBudget);
    return s;
}

hector::serve::OnlineConfig
onlineConfig(std::uint64_t seed, std::uint64_t run, std::size_t per_variant)
{
    hector::serve::OnlineConfig c;
    c.policy = "wfq";
    c.serving.resilience.enabled = true;
    c.serving.resilience.hedge = true;
    for (int v = 0; v < 3; ++v) {
        hector::serve::VariantLoad l;
        l.variant = modelTag(kModels[v]);
        l.ratePerSec = kRates[v];
        l.numRequests = per_variant;
        l.arrivalSeed = subSeed(subSeed(seed, 30 + run), v);
        c.variants.push_back(l);
    }
    return c;
}

/** Offered == served, none shed, timed out or failed. */
std::string
accountingError(const hector::serve::OnlineReport &r, std::size_t offered)
{
    if (r.requests == offered && r.requestsShed == 0 &&
        r.requestsTimedOut == 0 && r.requestsFailed == 0)
        return "";
    return "offered " + std::to_string(offered) + ", served " +
           std::to_string(r.requests) + ", shed " +
           std::to_string(r.requestsShed) + ", timed out " +
           std::to_string(r.requestsTimedOut) + ", failed " +
           std::to_string(r.requestsFailed);
}

/**
 * The variants' request-sampling streams, replayed: an engine built by
 * setUp(seed) seeds each variant's generator, draws its weights and
 * its warm-up request from it, then samples every admitted request
 * from it in the tick loop's admission order (arrival time, then
 * lane; nothing is shed in this workload).
 */
class Streams
{
  public:
    Streams(const State &s, std::uint64_t seed) : s_(s), seed_(seed)
    {
        for (int v = 0; v < 3; ++v) {
            const hector::serve::ServingConfig sc = servingConfig(seed, v);
            rngs_.emplace_back(sc.seed);
            weights_.push_back(hector::serve::initVariantWeights(
                modelSource(kModels[v]), kDim, kDim, s.g, rngs_.back()));
            (void)hector::graph::sampleNeighbors(s.g, sc.sample, rngs_[v]);
        }
    }

    /** The requests of one run of @p cfg, in admission order, with
     *  sampleNeighbors timed into @p layers when given. */
    std::vector<std::pair<int, hector::graph::Minibatch>>
    draw(const hector::serve::OnlineConfig &cfg, LayerTimes *layers)
    {
        std::vector<std::pair<double, int>> arr;
        for (int v = 0; v < 3; ++v) {
            const hector::serve::ServingConfig sc = servingConfig(seed_, v);
            hector::serve::LoadGenerator gen(
                cfg.variants[v].ratePerSec, cfg.variants[v].numRequests,
                cfg.variants[v].arrivalSeed, sc.mmpp, sc.diurnal);
            while (!gen.done())
                arr.emplace_back(gen.next(), v);
        }
        std::stable_sort(arr.begin(), arr.end());
        std::vector<std::pair<int, hector::graph::Minibatch>> out;
        for (const auto &[t, v] : arr) {
            const double t0 = wallSec();
            out.emplace_back(v, hector::graph::sampleNeighbors(
                                    s_.g, servingConfig(seed_, v).sample,
                                    rngs_[v]));
            if (layers) {
                layers->add("sample", wallSec() - t0);
                layers->add("sample_calls", 1.0);
            }
        }
        return out;
    }

    /** Variant @p v's weights as the engine drew them. */
    const hector::models::WeightMap &weights(int v) const
    {
        return weights_[static_cast<std::size_t>(v)];
    }

  private:
    const State &s_;
    std::uint64_t seed_;
    std::vector<std::mt19937_64> rngs_;
    std::vector<hector::models::WeightMap> weights_;
};

/** A delegating policy that times every decision and records the
 *  served batches (lane, size) in tick order. */
class TimedPolicy : public hector::serve::SchedulerPolicy
{
  public:
    TimedPolicy(const hector::serve::PolicySetup &setup,
                std::unique_ptr<hector::serve::SchedulerPolicy> inner,
                double &sec, std::vector<std::pair<int, std::size_t>> &ticks)
        : SchedulerPolicy(setup), inner_(std::move(inner)), sec_(sec),
          ticks_(ticks)
    {}

    const char *name() const override { return inner_->name(); }

    hector::serve::AdmitDecision
    admit(std::size_t lane, const hector::serve::LaneView &view,
          double arrival_sec, double now_sec) const override
    {
        const double t0 = wallSec();
        auto d = inner_->admit(lane, view, arrival_sec, now_sec);
        sec_ += wallSec() - t0;
        return d;
    }

    int
    pickLane(const std::vector<hector::serve::LaneView> &lanes) const override
    {
        const double t0 = wallSec();
        const int l = inner_->pickLane(lanes);
        sec_ += wallSec() - t0;
        return l;
    }

    std::size_t
    pickBatch(std::size_t lane,
              const hector::serve::LaneView &view) const override
    {
        const double t0 = wallSec();
        const std::size_t n = inner_->pickBatch(lane, view);
        sec_ += wallSec() - t0;
        ticks_.emplace_back(static_cast<int>(lane),
                            std::max<std::size_t>(
                                1, std::min(n, view.queueDepth)));
        return n;
    }

    void
    observe(std::size_t lane, const hector::serve::BatchCost &cost) override
    {
        const double t0 = wallSec();
        inner_->observe(lane, cost);
        sec_ += wallSec() - t0;
    }

    double
    estimateServiceSec(std::size_t lane, std::size_t n) const override
    {
        const double t0 = wallSec();
        const double e = inner_->estimateServiceSec(lane, n);
        sec_ += wallSec() - t0;
        return e;
    }

  private:
    std::unique_ptr<hector::serve::SchedulerPolicy> inner_;
    double &sec_;
    std::vector<std::pair<int, std::size_t>> &ticks_;
};

/** Outputs of one retained run at @p threads pool threads. */
std::map<std::uint64_t, Tensor>
retainedRun(std::uint64_t seed, int threads, Result &res)
{
    hector::util::setGlobalThreads(threads);
    std::unique_ptr<State> s = setUp(seed);
    hector::serve::OnlineConfig cfg = onlineConfig(seed, 999, kCheckPerVariant);
    cfg.retainResults = true;
    hector::serve::OnlineServer server(*s->engine, cfg);
    const hector::serve::OnlineReport rep = server.run();
    res.check("pool-size check run accounting",
              accountingError(rep, 3 * kCheckPerVariant));
    std::map<std::uint64_t, Tensor> out;
    // Ids 1..3 are the warm-up requests, drained (and dropped) at set-up.
    for (std::uint64_t id = 4; id < 4 + 3 * kCheckPerVariant; ++id)
        if (const Tensor *t = s->engine->result(id))
            out.emplace(id, *t);
    hector::util::setGlobalThreads(0);
    return out;
}

} // namespace

void
runOnlineSim(const Args &args, Result &res)
{
    std::vector<double> setups;
    std::unique_ptr<State> s;
    for (int r = 0; r < kSetupReps; ++r) {
        s.reset();
        purgeJitArtifacts();
        const double t0 = wallSec();
        s = setUp(args.seed);
        setups.push_back(wallSec() - t0);
    }

    // ---- timed runs (coarse: OnlineServer::run as configured)
    const double coarse_budget = args.trace ? 0.5 * args.seconds : args.seconds;
    std::vector<double> run_ms, per_req_ms, modeled_ms, p50, p99, peak;
    std::vector<hector::serve::OnlineConfig> cfgs;
    double busy = 0.0;
    std::size_t offered = 0;
    const double start = wallSec();
    while (wallSec() - start < coarse_budget || run_ms.empty()) {
        cfgs.push_back(onlineConfig(args.seed, cfgs.size(), kPerVariant));
        hector::serve::OnlineServer server(*s->engine, cfgs.back());
        s->rt.tracker().resetStats();
        const double t0 = wallSec();
        const hector::serve::OnlineReport rep = server.run();
        const double dt = wallSec() - t0;
        const std::size_t n = 3 * kPerVariant;
        busy += dt;
        offered += n;
        run_ms.push_back(dt * 1e3);
        per_req_ms.push_back(dt * 1e3 / static_cast<double>(n));
        modeled_ms.push_back(rep.makespanMs);
        peak.push_back(static_cast<double>(s->rt.tracker().peakBytes()) /
                       1048576.0);
        p50.push_back(rep.p50LatencyMs);
        p99.push_back(rep.p99LatencyMs);
        res.attempted += n;
        res.failed += n - std::min(n, rep.requests);
        res.check("online run accounting", accountingError(rep, n));
    }
    {
        hector::serve::OnlineReport bad;
        bad.requests = 3 * kPerVariant - 1;
        bad.requestsShed = 1;
        res.expectReject("online accounting",
                         accountingError(bad, 3 * kPerVariant));
    }

    // ---- outputs: identical bits at 1 and at nproc pool threads, and
    //      equal to the reference on each request's own subgraph
    const int threads =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
    const std::map<std::uint64_t, Tensor> one = retainedRun(args.seed, 1, res);
    const std::map<std::uint64_t, Tensor> many =
        retainedRun(args.seed, threads, res);
    if (one.size() != 3 * kCheckPerVariant || many.size() != one.size())
        res.fail("pool-size check runs retained " + std::to_string(one.size()) +
                 " and " + std::to_string(many.size()) + " results");
    for (const auto &[id, t] : one) {
        auto it = many.find(id);
        res.check("online output at 1 vs " + std::to_string(threads) +
                      " threads",
                  it == many.end() ? "missing" : compareBits(t, it->second));
    }
    if (!one.empty())
        res.expectReject("pool-size bit identity",
                         compareBits(perturbed(one.begin()->second),
                                     one.begin()->second));
    {
        Streams streams(*s, args.seed);
        const auto reqs = streams.draw(
            onlineConfig(args.seed, 999, kCheckPerVariant), nullptr);
        std::size_t i = 0;
        for (const auto &[id, t] : one) {
            const auto &[v, mb] = reqs[i++];
            const Tensor ref = hector::models::referenceForward(
                kModels[v], mb.subgraph, streams.weights(v),
                hector::graph::gatherFeatures(mb, s->features));
            res.check(std::string("online ") + modelTag(kModels[v]) +
                          " output vs reference",
                      compareToReference(t, ref));
            if (i == 1)
                res.expectReject("online reference check",
                                 compareToReference(perturbed(t), ref));
        }
    }

    if (!args.trace) {
        res.set("setup_s", median(setups));
        res.set("sweep_ms", median(run_ms));
        res.set("peak_tensor_mib", median(peak));
        res.set("modeled_sweep_ms", median(modeled_ms));
        res.set("req_per_s", static_cast<double>(offered) / busy);
        res.set("req_ms_p50", windowedPercentile(per_req_ms, 0.5, kRunWindow));
        res.set("req_ms_p99",
                windowedPercentile(per_req_ms, 0.99, kRunWindow));
        res.set("sim_req_per_s", static_cast<double>(offered) / busy);
        res.set("modeled_req_ms_p50", median(p50));
        res.set("modeled_req_ms_p99", median(p99));
        return;
    }

    // ---- traced runs: the policy behind a timing wrapper, then the
    //      served batches replayed through the finer public calls
    double policy_sec = 0.0;
    std::vector<std::pair<int, std::size_t>> ticks;
    std::vector<double> traced_ms;
    double traced_busy = 0.0, hedged = 0.0, retried = 0.0, nticks = 0.0;
    double recompiles = 0.0, evictions = 0.0;
    LayerTimes layers;
    hector::sim::Runtime rt(hector::sim::makeScaledSpec(kScale));
    hector::sim::Runtime scratch(hector::sim::makeScaledSpec(kScale));
    std::vector<hector::core::ExecutionContext> ctx(3), sctx(3);
    hector::serve::PlanCache mirror(s->planBudget);
    std::vector<std::unique_ptr<hector::serve::PlanCompiler>> compilers;
    for (int v = 0; v < 3; ++v)
        compilers.push_back(std::make_unique<hector::serve::PlanCompiler>(
            s->g, modelTag(kModels[v]), servingConfig(args.seed, v), false));
    // The engine's streams have served the coarse runs already.
    Streams streams(*s, args.seed);
    for (const hector::serve::OnlineConfig &c : cfgs)
        (void)streams.draw(c, nullptr);
    const double tstart = wallSec();
    while (wallSec() - tstart < args.seconds - coarse_budget ||
           traced_ms.empty()) {
        hector::serve::OnlineConfig cfg =
            onlineConfig(args.seed, cfgs.size(), kPerVariant);
        ticks.clear();
        cfg.makePolicy = [&](const hector::serve::PolicySetup &setup) {
            return std::make_unique<TimedPolicy>(
                setup, hector::serve::makeSchedulerPolicy("wfq", setup),
                policy_sec, ticks);
        };
        const auto before = s->engine->planCache().stats();
        hector::serve::OnlineServer server(*s->engine, cfg);
        const double t0 = wallSec();
        const hector::serve::OnlineReport rep = server.run();
        const double dt = wallSec() - t0;
        const auto &after = s->engine->planCache().stats();
        traced_busy += dt;
        traced_ms.push_back(dt * 1e3);
        hedged += static_cast<double>(rep.requestsHedged);
        retried += static_cast<double>(rep.requestsRetried);
        nticks += static_cast<double>(rep.ticks);
        recompiles += static_cast<double>(after.recompiles - before.recompiles);
        evictions += static_cast<double>(after.evictions - before.evictions);
        res.check("traced online run accounting",
                  accountingError(rep, 3 * kPerVariant));
        // The replay serves the recorded batches: they must be the
        // ones the tick loop served.
        std::vector<std::size_t> sizes;
        for (const auto &[v, n] : ticks)
            sizes.push_back(n);
        if (sizes != server.batchSizes() || ticks.size() != rep.ticks)
            res.fail("recorded batches (" + std::to_string(ticks.size()) +
                     ") differ from OnlineServer::run's (" +
                     std::to_string(server.batchSizes().size()) +
                     " batch sizes, " + std::to_string(rep.ticks) +
                     " ticks)");

        // Replay: the same requests, sampled again from the variants'
        // streams, served in the recorded batches.
        cfgs.push_back(cfg);
        auto drawn = streams.draw(cfg, &layers);
        std::vector<std::vector<std::unique_ptr<hector::serve::Request>>>
            lanes(3);
        for (auto &[v, mb] : drawn) {
            const double a0 = wallSec();
            Tensor f = hector::graph::gatherFeatures(mb, s->features);
            layers.add("gather", wallSec() - a0);
            layers.add("sampled_edges",
                       static_cast<double>(mb.subgraph.numEdges()));
            lanes[v].push_back(std::make_unique<hector::serve::Request>(
                lanes[v].size(), std::move(mb), std::move(f),
                static_cast<std::uint32_t>(v)));
        }
        std::vector<std::size_t> head(3, 0);
        for (const auto &[v, n] : ticks) {
            const hector::serve::PlanKey key = s->engine->planKey(v);
            const double p0 = wallSec();
            auto plan = mirror.get(key, [&]() {
                return compilers[v]->compile(key, s->features,
                                             streams.weights(v));
            });
            mirror.enforceBudget();
            layers.add("plan_get", wallSec() - p0);
            layers.add("plan_lookups", 1.0);
            std::vector<const hector::serve::Request *> batch;
            for (std::size_t j = 0; j < n && head[v] < lanes[v].size(); ++j)
                batch.push_back(lanes[v][head[v]++].get());
            hector::models::WeightMap w = streams.weights(v);
            tracedBatch(*plan, batch, w, rt, ctx[v], scratch, sctx[v],
                        layers, modelTag(kModels[v]), res);
        }
    }
    const double runs = static_cast<double>(traced_ms.size());
    reportServeLayers(layers, runs, rt, res);
    res.set("serve.plan_recompiles", recompiles / runs);
    res.set("serve.plan_evictions", evictions / runs);
    res.set("online.run_s", median(run_ms) * 1e-3);
    res.set("online.policy_ms", policy_sec / runs * 1e3);
    res.set("online.ticks", nticks / runs);
    res.set("online.hedged", hedged / runs);
    res.set("online.retried", retried / runs);
    res.set("trace.overhead_pct",
            100.0 * (median(traced_ms) / median(run_ms) - 1.0));
    const double per_run_layers =
        (layers.sumOf({"sample", "gather", "plan_get", "coalesce",
                       "execute_batch"}) +
         policy_sec) /
        runs;
    res.set("trace.coverage_pct",
            100.0 * per_run_layers / (traced_busy / runs));
}

} // namespace hbench
