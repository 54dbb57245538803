#include "checks.hh"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "models/reference.hh"

namespace hbench
{

using hector::tensor::Tensor;

namespace
{

std::string
shapeOf(const Tensor &t)
{
    std::string s = "[";
    for (int i = 0; i < t.ndim(); ++i)
        s += (i ? "," : "") + std::to_string(t.dim(i));
    return s + "]";
}

/** Reference loss: mean over rows of the summed output, in double. */
double
referenceLoss(hector::models::ModelKind m, const hector::graph::HeteroGraph &g,
              const hector::models::WeightMap &w, const Tensor &feature)
{
    const Tensor out = hector::models::referenceForward(m, g, w, feature);
    double sum = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i)
        sum += out.data()[i];
    return sum / static_cast<double>(std::max<std::int64_t>(1, out.dim(0)));
}

/** Deep copy of a weight map (perturbation must not alias). */
hector::models::WeightMap
cloneWeights(const hector::models::WeightMap &w)
{
    hector::models::WeightMap out;
    for (const auto &[name, t] : w)
        out.emplace(name, t.clone());
    return out;
}

} // namespace

double
scaledError(const Tensor &out, const Tensor &ref, std::size_t *at)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < out.numel() && i < ref.numel(); ++i) {
        const double r = ref.data()[i];
        const double err =
            std::fabs(static_cast<double>(out.data()[i]) - r) /
            (1.0 + std::fabs(r));
        if (!(err <= worst)) { // NaN counts as worst
            worst = err;
            if (at)
                *at = i;
        }
    }
    return worst;
}

std::string
compareToReference(const Tensor &out, const Tensor &ref)
{
    if (out.shape() != ref.shape())
        return "shape " + shapeOf(out) + " != reference " + shapeOf(ref);
    std::size_t at = 0;
    const double worst = scaledError(out, ref, &at);
    if (worst <= kRefTol)
        return "";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "element %zu: %.9g vs reference %.9g (scaled error "
                  "%.3g > %.3g)",
                  at, static_cast<double>(out.data()[at]),
                  static_cast<double>(ref.data()[at]), worst, kRefTol);
    return buf;
}

std::string
compareBits(const Tensor &a, const Tensor &b)
{
    if (a.shape() != b.shape())
        return "shape " + shapeOf(a) + " != " + shapeOf(b);
    if (a.numel() == 0 ||
        std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0)
        return "";
    for (std::size_t i = 0; i < a.numel(); ++i)
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0)
            return "bits differ at element " + std::to_string(i);
    return "bits differ";
}

Tensor
perturbed(const Tensor &t)
{
    Tensor c = t.clone();
    if (c.numel() > 0) {
        float &x = c.data()[c.numel() / 2];
        x += 1e-3f * (1.0f + std::fabs(x));
    }
    return c;
}

std::vector<DirectionalGrad>
directionalGradients(hector::models::ModelKind m,
                     const hector::graph::HeteroGraph &g,
                     const hector::models::WeightMap &w,
                     const Tensor &feature,
                     const hector::models::WeightMap &grads,
                     std::mt19937_64 &rng, double eps)
{
    std::vector<DirectionalGrad> out;
    for (const auto &[name, weight] : w) {
        const Tensor dir = Tensor::uniform(weight.shape(), rng, 1.0f);
        DirectionalGrad d;
        d.weight = name;
        auto git = grads.find(name);
        if (git != grads.end() && git->second.shape() == weight.shape())
            for (std::size_t i = 0; i < dir.numel(); ++i)
                d.program += static_cast<double>(git->second.data()[i]) *
                             dir.data()[i];
        else
            d.program = std::nan("");

        hector::models::WeightMap wp = cloneWeights(w);
        hector::models::WeightMap wm = cloneWeights(w);
        float *p = wp.at(name).data();
        float *q = wm.at(name).data();
        for (std::size_t i = 0; i < dir.numel(); ++i) {
            p[i] = static_cast<float>(p[i] + eps * dir.data()[i]);
            q[i] = static_cast<float>(q[i] - eps * dir.data()[i]);
        }
        d.central = (referenceLoss(m, g, wp, feature) -
                     referenceLoss(m, g, wm, feature)) /
                    (2.0 * eps);
        out.push_back(d);
    }
    return out;
}

std::string
judgeGradients(const std::vector<DirectionalGrad> &d)
{
    if (d.empty())
        return "no weight tensors";
    for (const DirectionalGrad &x : d) {
        const double tol =
            kGradRelTol * std::max(std::fabs(x.program),
                                   std::fabs(x.central)) +
            kGradAbsTol;
        if (!(std::fabs(x.program - x.central) <= tol)) {
            char buf[200];
            std::snprintf(buf, sizeof(buf),
                          "d/d%s along a random direction: program "
                          "%.6g vs central difference %.6g",
                          x.weight.c_str(), x.program, x.central);
            return buf;
        }
    }
    return "";
}

} // namespace hbench
