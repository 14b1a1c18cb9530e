#include "core/monitor.hh"

#include <algorithm>

namespace pliant {
namespace core {

PerformanceMonitor::PerformanceMonitor(std::size_t sample_budget,
                                       std::uint64_t seed)
    : budget(std::max<std::size_t>(sample_budget, 16)), rng(seed)
{
    window.reserve(budget);
}

IntervalReport
PerformanceMonitor::closeInterval()
{
    IntervalReport rep;
    rep.samples = window.size();
    // The window dies with the interval, so select in place: the p99
    // needs only the order statistics at its interpolation ranks,
    // the few largest samples, which a top-k heap finds in one pass
    // where a sort pays O(n log n). The value is the one a sort
    // followed by util::sortedPercentile reads, bit for bit.
    rep.p99Us = util::selectHighPercentile(window, 99.0);
    window.clear();
    windowOffered = 0;
    return rep;
}

} // namespace core
} // namespace pliant
