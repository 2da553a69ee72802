#include "sweep/plan.hh"

#include <algorithm>
#include <cctype>

#include "cli/scenario.hh"

namespace dalorex
{
namespace sweep
{
namespace
{

/** Order-preserving dedup, so duplicate axis points collapse. */
template <typename T>
std::vector<T>
unique(const std::vector<T>& xs)
{
    std::vector<T> out;
    for (const T& x : xs)
        if (std::find(out.begin(), out.end(), x) == out.end())
            out.push_back(x);
    return out;
}

ExpandResult
fail(const std::string& message)
{
    ExpandResult result;
    result.ok = false;
    result.error = message;
    return result;
}

} // namespace

bool
parseGridShape(const std::string& text, GridShape& out)
{
    const std::size_t x = text.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= text.size())
        return false;
    const auto digits = [](const std::string& s) {
        return !s.empty() &&
               std::all_of(s.begin(), s.end(), [](unsigned char c) {
                   return std::isdigit(c);
               });
    };
    const std::string w = text.substr(0, x);
    const std::string h = text.substr(x + 1);
    if (!digits(w) || !digits(h) || w.size() > 4 || h.size() > 4)
        return false;
    out.width = static_cast<std::uint32_t>(std::stoul(w));
    out.height = static_cast<std::uint32_t>(std::stoul(h));
    return out.width > 0 && out.height > 0;
}

std::string
toString(const GridShape& shape)
{
    return std::to_string(shape.width) + "x" +
           std::to_string(shape.height);
}

ExpandResult
expand(const Plan& plan)
{
    const std::vector<const KernelInfo*> kernels =
        unique(plan.kernels);
    const std::vector<DatasetSpec> datasets = unique(plan.datasets);
    const std::vector<GridShape> grids = unique(plan.grids);
    const std::vector<NocTopology> topologies =
        unique(plan.topologies);
    const std::vector<SchedPolicy> policies = unique(plan.policies);
    const std::vector<Distribution> distributions =
        unique(plan.distributions);
    const std::vector<bool> barriers = unique(plan.barriers);
    const std::vector<unsigned> engine_threads =
        unique(plan.engineThreads);

    if (kernels.empty())
        return fail("kernel axis is empty");
    for (const KernelInfo* kernel : kernels) {
        if (kernel == nullptr)
            return fail("kernel axis contains a null kernel handle");
    }
    if (datasets.empty())
        return fail("dataset axis is empty");
    if (grids.empty())
        return fail("grid axis is empty");
    if (topologies.empty())
        return fail("topology axis is empty");
    if (policies.empty())
        return fail("policy axis is empty");
    if (distributions.empty())
        return fail("distribution axis is empty");
    if (barriers.empty())
        return fail("barrier axis is empty");
    if (engine_threads.empty())
        return fail("engine-threads axis is empty");

    ExpandResult result;
    result.baseline =
        plan.baseline.tiles() > 0 ? plan.baseline : grids.front();
    if (std::find(grids.begin(), grids.end(), result.baseline) ==
        grids.end())
        return fail("baseline grid " + toString(result.baseline) +
                    " is not on the grid axis");

    for (const KernelInfo* kernel : kernels)
      for (const DatasetSpec& ds : datasets)
        for (const GridShape& grid : grids)
          for (const NocTopology topology : topologies)
            for (const SchedPolicy policy : policies)
              for (const Distribution distribution : distributions)
                for (const bool barrier : barriers)
                  for (const unsigned threads : engine_threads) {
                      cli::Options o = plan.base;
                      o.kernel = kernel;
                      o.dataset = ds.name;
                      if (ds.name.empty())
                          o.scale = ds.scale;
                      else
                          o.datasetScale = ds.scale;
                      o.machine.width = grid.width;
                      o.machine.height = grid.height;
                      o.machine.topology = topology;
                      o.machine.policy = policy;
                      o.machine.distribution = distribution;
                      o.machine.barrier = barrier;
                      o.machine.engineThreads = threads;
                      const cli::ScenarioCheck check =
                          cli::finishScenario(o);
                      if (!check.ok)
                          return fail(check.error);
                      if (!check.note.empty() &&
                          std::find(result.notes.begin(),
                                    result.notes.end(),
                                    check.note) == result.notes.end())
                          result.notes.push_back(check.note);
                      result.points.push_back(std::move(o));
                  }
    return result;
}

} // namespace sweep
} // namespace dalorex
