/**
 * @file
 * Client-side performance monitor.
 *
 * The monitor continuously samples end-to-end request latencies of
 * the interactive service (adaptive sampling keeps the overhead
 * unmeasurable) and, at every decision interval, reports the tail
 * estimate the Pliant runtime acts on.
 */

#ifndef PLIANT_CORE_MONITOR_HH
#define PLIANT_CORE_MONITOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hh"
#include "util/stats.hh"

namespace pliant {
namespace core {

/** Tail estimate for one decision interval. */
struct IntervalReport
{
    double p99Us = 0.0;
    std::size_t samples = 0;
};

/**
 * Latency monitor with adaptive sampling: when the offered sample
 * volume exceeds the per-interval budget, it keeps a uniform
 * subsample, bounding monitoring cost independent of load.
 *
 * observe() is defined inline here: the engine feeds every sampled
 * latency through it inside its per-sample loop, so the call costs
 * no cross-translation-unit jump. closeInterval() reads the p99 by
 * in-place top-k selection (util::selectHighPercentile), not by
 * sorting.
 */
class PerformanceMonitor
{
  public:
    /**
     * @param sample_budget max retained samples per decision interval.
     * @param seed stream for the subsampling decisions.
     */
    explicit PerformanceMonitor(std::size_t sample_budget = 4096,
                                std::uint64_t seed = 11);

    /** Feed one measured latency (microseconds). */
    void observe(double latency_us)
    {
        ++offeredCount;
        ++windowOffered;
        longRun.add(latency_us);
        if (window.size() < budget) {
            window.push_back(latency_us);
            return;
        }
        // Reservoir replacement keeps the window a uniform sample of
        // the interval's traffic.
        const std::uint64_t j = rng.uniformInt(windowOffered);
        if (j < budget)
            window[static_cast<std::size_t>(j)] = latency_us;
    }

    /**
     * Close the current decision interval: compute the report and
     * reset the window.
     */
    IntervalReport closeInterval();

    /** Samples retained in the open window. */
    std::size_t windowSize() const { return window.size(); }

    /** Total samples offered (pre-subsampling) since construction. */
    std::uint64_t offered() const { return offeredCount; }

    /** Long-run p99 across the whole run (survives interval resets). */
    double longRunP99() const { return longRun.value(); }

  private:
    std::size_t budget;
    util::Rng rng;
    std::vector<double> window;
    std::uint64_t offeredCount = 0;
    std::uint64_t windowOffered = 0;
    util::P2Quantile longRun{0.99};
};

} // namespace core
} // namespace pliant

#endif // PLIANT_CORE_MONITOR_HH
