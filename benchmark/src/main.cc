/**
 * @file
 * Benchmark entry point:
 *
 *   hector_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload and prints, as the last line of stdout, one JSON
 * object {correct, attempted, failed, metrics}. With --trace 0 the
 * metrics are the end-to-end metrics, measured with the coarse public
 * calls only; with --trace 1 they are the per-layer metrics of a
 * separate traced run. benchmark/run.py builds this binary and sets
 * the per-run environment (pool size, JIT artifact directory).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric of the traced run. A layer that does no work
 *  on a workload reports 0 there (see README.md). */
const MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.compaction_ms", "ms"},
    {"graph.sample_ms", "ms"},
    {"graph.gather_ms", "ms"},
    {"graph.sampled_edges", "count"},
    {"core.compile_ms", "ms"},
    {"core.jit_attach_ms", "ms"},
    {"core.jit_fallbacks", "count"},
    {"core.kernels_fwd", "count"},
    {"core.kernels_bwd", "count"},
    {"exec.fwd.gemm_ms", "ms/sweep"},
    {"exec.fwd.traversal_ms", "ms/sweep"},
    {"exec.fwd.fallback_ms", "ms/sweep"},
    {"exec.bwd.gemm_ms", "ms/sweep"},
    {"exec.bwd.traversal_ms", "ms/sweep"},
    {"exec.bwd.fallback_ms", "ms/sweep"},
    {"exec.zero_ms", "ms/sweep"},
    {"exec.gemm_gflops", "GF/s"},
    {"mem.peak_mib", "MiB"},
    {"sim.gemm_ms", "ms_modeled"},
    {"sim.traversal_ms", "ms_modeled"},
    {"sim.other_ms", "ms_modeled"},
    {"serve.coalesce_ms", "ms"},
    {"serve.forward_ms", "ms"},
    {"serve.scatter_ms", "ms"},
    {"serve.plan_get_ms", "ms"},
    {"serve.plan_recompiles", "count"},
    {"serve.plan_evictions", "count"},
    {"serve.batch_requests", "count"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"online.run_s", "s"},
    {"online.policy_ms", "ms"},
    {"online.ticks", "count"},
    {"online.hedged", "count"},
    {"online.retried", "count"},
    {"loadgen.lag_ms_p99", "ms"},
    {"loadgen.offered_req_per_s", "req/s"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

/** exec.* and mem.* per-layer metrics also come split per model. */
const char *const kPerModel[] = {
    "exec.fwd.gemm_ms",      "exec.fwd.traversal_ms", "exec.fwd.fallback_ms",
    "exec.bwd.gemm_ms",      "exec.bwd.traversal_ms", "exec.bwd.fallback_ms",
    "exec.zero_ms",          "exec.gemm_gflops",      "mem.peak_mib",
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"sweep_ms", "ms"},
    {"peak_tensor_mib", "MiB"},
    {"modeled_sweep_ms", "ms_modeled"},
    {"req_per_s", "req/s"},
    {"req_ms_p50", "ms"},
    {"req_ms_p99", "ms"},
    {"sim_req_per_s", "req/s"},
    {"modeled_req_ms_p50", "ms_modeled"},
    {"modeled_req_ms_p99", "ms_modeled"},
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: hector_bench --workload "
                 "<fullgraph_infer|fullgraph_train|serve_mixed|"
                 "serve_online_sim> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    hbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            args.workload = v;
        } else if (k == "--seed") {
            args.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                return usage("bad --seed");
        } else if (k == "--seconds") {
            args.seconds = std::strtod(v, &end);
            if (!*v || *end || !(args.seconds > 0.0) || args.seconds > 600.0)
                return usage("bad --seconds");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return usage("bad --trace");
            args.trace = v[0] == '1';
        } else {
            return usage(("unknown argument " + k).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("arguments come in pairs");

    hbench::Result res;
    try {
        if (args.workload == "fullgraph_infer")
            hbench::runFullGraph(args, false, res);
        else if (args.workload == "fullgraph_train")
            hbench::runFullGraph(args, true, res);
        else if (args.workload == "serve_mixed")
            hbench::runServeMixed(args, res);
        else if (args.workload == "serve_online_sim")
            hbench::runOnlineSim(args, res);
        else
            return usage(("unknown workload '" + args.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "workload %s aborted: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    // Every metric of the chosen kind is printed, with the units of
    // the tables above; an end-to-end metric a workload did not measure
    // is a harness fault.
    std::vector<std::pair<std::string, std::string>> names;
    if (args.trace) {
        for (const MetricSpec &m : kPerLayer) {
            names.emplace_back(m.name, m.unit);
            for (const char *pm : kPerModel)
                if (std::strcmp(pm, m.name) == 0)
                    for (const char *tag : {"rgcn", "rgat", "hgt"})
                        names.emplace_back(std::string(m.name) + "." + tag,
                                           m.unit);
        }
    } else {
        for (const MetricSpec &m : kEndToEnd) {
            names.emplace_back(m.name, m.unit);
            if (!res.has(m.name))
                res.fail(std::string("workload did not report ") + m.name);
        }
    }
    if (res.attempted == 0)
        res.fail("no operation was attempted");
    std::printf("%s\n", res.json(names).c_str());
    std::fflush(stdout);
    return 0;
}
