#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/jit.hh"
#include "models/model_sources.hh"

namespace hbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
windowedPercentile(const std::vector<double> &v, double q, std::size_t window)
{
    if (window == 0 || v.size() < 2 * window)
        return percentile(v, q);
    std::vector<double> tails;
    for (std::size_t lo = 0; lo + window <= v.size(); lo += window)
        tails.push_back(percentile(
            std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                                v.begin() +
                                    static_cast<std::ptrdiff_t>(lo + window)),
            q));
    return median(tails);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const char *
modelTag(hector::models::ModelKind m)
{
    switch (m) {
      case hector::models::ModelKind::Rgcn:
        return "rgcn";
      case hector::models::ModelKind::Rgat:
        return "rgat";
      case hector::models::ModelKind::Hgt:
        return "hgt";
    }
    return "?";
}

const char *
modelSource(hector::models::ModelKind m)
{
    switch (m) {
      case hector::models::ModelKind::Rgcn:
        return hector::models::kRgcnSource;
      case hector::models::ModelKind::Rgat:
        return hector::models::kRgatSource;
      case hector::models::ModelKind::Hgt:
        return hector::models::kHgtSource;
    }
    return hector::models::kRgcnSource;
}

void
purgeJitArtifacts()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir(hector::core::jit::artifactDir());
    for (const auto &entry : fs::directory_iterator(dir, ec))
        if (entry.path().filename().string().rfind("hector_jit_", 0) == 0)
            fs::remove(entry.path(), ec);
}

double
LayerTimes::get(const std::string &name) const
{
    auto it = sec_.find(name);
    return it == sec_.end() ? 0.0 : it->second;
}

double
LayerTimes::sumOf(const std::vector<std::string> &names) const
{
    double s = 0.0;
    for (const std::string &n : names)
        s += get(n);
    return s;
}

void
Result::set(const std::string &name, double value)
{
    if (!std::isfinite(value))
        fail("metric " + name + " is not a finite number");
    values_[name] = value;
}

void
Result::fail(const std::string &what)
{
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void
Result::check(const std::string &what, const std::string &err)
{
    if (!err.empty())
        fail(what + ": " + err);
}

void
Result::expectReject(const std::string &what, const std::string &err)
{
    if (err.empty())
        fail("self-test: " + what + " accepted a perturbed value");
}

std::string
Result::json(
    const std::vector<std::pair<std::string, std::string>> &metrics) const
{
    std::string s = "{\"correct\": ";
    s += correct_ ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : metrics) {
        auto it = values_.find(name);
        const double v = it == values_.end() || !std::isfinite(it->second)
                             ? 0.0
                             : it->second;
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        s += first ? "" : ", ";
        first = false;
        s += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
             unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace hbench
