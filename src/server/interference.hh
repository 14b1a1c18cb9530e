/**
 * @file
 * Shared-resource interference model.
 *
 * Maps the aggregate pressure of all colocated tasks onto a
 * service-time inflation factor for each interactive service,
 * through three contention channels:
 *
 *  - LLC occupancy: total working sets vs cache capacity (smooth
 *    conflict-miss growth, not a hard threshold),
 *  - memory bandwidth: total demand vs peak channel bandwidth,
 *  - compute: frequency/power coupling between pinned containers.
 *
 * Each interactive service weighs these channels with its own
 * sensitivity vector — memcached is the most contention-sensitive,
 * NGINX close behind, MongoDB I/O-bound and least sensitive — which
 * is exactly the behavioural ordering the paper reports.
 */

#ifndef PLIANT_SERVER_INTERFERENCE_HH
#define PLIANT_SERVER_INTERFERENCE_HH

#include <vector>

#include "approx/variant.hh"
#include "server/partition.hh"
#include "server/spec.hh"

namespace pliant {
namespace server {

/** Per-channel interference sensitivity of an interactive service. */
struct Sensitivity
{
    double llc = 0.20;
    double membw = 0.16;
    double compute = 0.06;

    /**
     * Sensitivity to the mere presence of active co-runners (shared
     * kernel, network stack, scheduler, and prefetcher effects that
     * exist below the LLC/bandwidth thresholds). Scales with the
     * co-runners' activity level, so approximation relieves it too.
     */
    double base = 0.05;
};

/** Decomposed contention levels, each roughly in [0, ~1.6]. */
struct ContentionBreakdown
{
    double llc = 0.0;
    double membw = 0.0;
    double compute = 0.0;

    /** Aggregate co-runner activity driving the base penalty. */
    double activity = 0.0;

    /** Sensitivity-weighted total contention. */
    double weighted(const Sensitivity &s) const
    {
        return s.llc * llc + s.membw * membw + s.compute * compute +
               s.base * activity;
    }
};

/**
 * Stateless interference calculator over a ServerSpec.
 */
class InterferenceModel
{
  public:
    explicit InterferenceModel(const ServerSpec &spec);

    /**
     * Contention one service experiences in a colocation: `peers` are
     * the *other* latency-critical services and `tasks` the
     * approximate co-runners. On a shared LLC (an unisolated
     * `partition`) peers and tasks count alike. Under an LLC way
     * partition (Section 6.5 extension) the peers share the isolated
     * ways with `self`: their working sets count against the
     * service-side capacity and their bandwidth is not amplified.
     * Only the tasks are squeezed into the remaining ways, which
     * amplifies their memory-bandwidth demand. A single-service
     * colocation passes no peers.
     */
    ContentionBreakdown
    contentionMulti(const approx::PressureVector &self,
                    const std::vector<approx::PressureVector> &peers,
                    const std::vector<approx::PressureVector> &tasks,
                    const CachePartition &partition) const;

    /**
     * Service-time inflation factor (>= 1) for a service with the
     * given sensitivity under the given contention.
     */
    double inflation(const ContentionBreakdown &c, const Sensitivity &s) const
    {
        return 1.0 + c.weighted(s);
    }

    double llcCapacityMb() const { return llcMb; }
    double peakBwGbs() const { return peakBw; }

  private:
    double llcMb;
    double peakBw;
};

} // namespace server
} // namespace pliant

#endif // PLIANT_SERVER_INTERFERENCE_HH
