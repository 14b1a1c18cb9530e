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
    if (!window.empty()) {
        // The mean sums in window order, before selection reorders
        // the window.
        double sum = 0.0;
        for (double l : window)
            sum += l;
        rep.meanUs = sum / static_cast<double>(window.size());
        // The window dies with the interval, so select in place:
        // p99 and p50 need only the order statistics at their
        // interpolation ranks, which selection finds in O(n) where a
        // sort pays O(n log n). The values are the ones a sort
        // followed by util::sortedPercentile reads, bit for bit.
        const util::PercentilePair tail =
            util::selectPercentiles(window, 99.0, 50.0);
        rep.p99Us = tail.upper;
        rep.p50Us = tail.lower;
    }
    window.clear();
    windowOffered = 0;
    return rep;
}

} // namespace core
} // namespace pliant
