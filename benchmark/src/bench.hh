/**
 * @file
 * Shared pieces of the benchmark harness: wall clock, order
 * statistics, seeded sub-streams, the per-layer timer table and the
 * result object every workload fills and prints as one JSON line.
 */

#ifndef HECTOR_BENCHMARK_BENCH_HH
#define HECTOR_BENCHMARK_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "models/models.hh"

namespace hbench
{

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Monotonic wall clock in seconds. */
inline double
wallSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile of @p v, q in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double q);

/**
 * The median, over consecutive windows of @p window samples of @p v
 * (in measurement order), of each window's q-percentile; the plain
 * percentile when @p window is 0 or @p v holds less than two
 * windows. A stall of the shared host moves one window's tail, not
 * the reported one.
 */
double windowedPercentile(const std::vector<double> &v, double q,
                          std::size_t window);

/** SplitMix64 of (seed, stream): independent seeded sub-streams. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

/** Lower-case model name used as a metric suffix. */
const char *modelTag(hector::models::ModelKind m);

/** DSL source of @p m. */
const char *modelSource(hector::models::ModelKind m);

inline const std::vector<hector::models::ModelKind> kModels = {
    hector::models::ModelKind::Rgcn, hector::models::ModelKind::Rgat,
    hector::models::ModelKind::Hgt};

/**
 * Remove every JIT artifact from the artifact directory, so the next
 * plan set-up compiles its kernels again instead of loading them.
 * Only the run's own directory is touched (HECTOR_JIT_DIR, set per
 * run by run.py).
 */
void purgeJitArtifacts();

/** Accumulated seconds per named layer timer. */
class LayerTimes
{
  public:
    void add(const std::string &name, double sec) { sec_[name] += sec; }
    double get(const std::string &name) const;
    double sumOf(const std::vector<std::string> &names) const;

  private:
    std::map<std::string, double> sec_;
};

/** Counters and metrics of one run, printed as the last stdout line. */
class Result
{
  public:
    /** Record metric @p name (units live in main.cc's metric table). */
    void set(const std::string &name, double value);
    bool has(const std::string &name) const { return values_.count(name); }

    /** Record a failed correctness check (run stays alive). */
    void fail(const std::string &what);

    /** Record the outcome of a check: "" passes, else the reason. */
    void check(const std::string &what, const std::string &err);

    /** Self-test: @p err must be non-empty (the check rejected a
     *  deliberately perturbed value). */
    void expectReject(const std::string &what, const std::string &err);

    bool correct() const { return correct_; }
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** The result line, metrics in the order and with the units of
     *  @p metrics (name, unit); absent ones print as 0. */
    std::string
    json(const std::vector<std::pair<std::string, std::string>> &metrics)
        const;

  private:
    bool correct_ = true;
    std::map<std::string, double> values_;
};

void runFullGraph(const Args &args, bool training, Result &res);
void runServeMixed(const Args &args, Result &res);
void runOnlineSim(const Args &args, Result &res);

} // namespace hbench

#endif // HECTOR_BENCHMARK_BENCH_HH
