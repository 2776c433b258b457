/// \file
/// Metrics registry implementation.

#include "telemetry/metrics.h"

namespace vdom::telemetry {

namespace detail {
MetricsRegistry *g_metrics_sink = nullptr;
}  // namespace detail

void
MetricsRegistry::reset()
{
    scalars_.fill(0);
    histograms_.fill(Histogram{});
}

std::vector<MetricsRegistry::Sample>
MetricsRegistry::snapshot(bool include_zeroes) const
{
    std::vector<Sample> out;
    for (std::size_t i = 0; i < kNumWellKnownMetrics; ++i) {
        auto m = static_cast<Metric>(i);
        std::uint64_t v = value(m);
        if (v == 0 && !include_zeroes)
            continue;
        out.push_back(Sample{kMetricDefs[i].name, kMetricDefs[i].kind, v});
    }
    return out;
}

}  // namespace vdom::telemetry
