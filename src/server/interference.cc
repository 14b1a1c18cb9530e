#include "server/interference.hh"

#include <algorithm>
#include <cmath>

namespace pliant {
namespace server {

InterferenceModel::InterferenceModel(const ServerSpec &spec)
    : llcMb(spec.llcMB), peakBw(spec.peakMemBwGbs())
{
}

namespace {

/** Shared accumulation over co-runner pressure vectors. */
struct Aggregate
{
    double llc = 0.0;
    double bw = 0.0;
    double compute = 0.0;
    double activity = 0.0;
};

Aggregate
aggregate(const std::vector<approx::PressureVector> &corunners)
{
    Aggregate agg;
    for (const approx::PressureVector &p : corunners) {
        agg.llc += p.llcMb;
        agg.bw += p.membwGbs;
        agg.compute += p.compute;
        // Activity blends execution intensity and memory traffic, so
        // approximation (which shrinks both) also relieves the base
        // colocation penalty.
        agg.activity += 0.5 * std::min(p.compute, 1.0) +
                        0.5 * std::min(p.membwGbs / 22.0, 1.2);
    }
    return agg;
}

} // namespace

ContentionBreakdown
InterferenceModel::contentionMulti(
    const approx::PressureVector &self,
    const std::vector<approx::PressureVector> &peers,
    const std::vector<approx::PressureVector> &tasks,
    const CachePartition &partition) const
{
    const Aggregate pagg = aggregate(peers);
    const Aggregate tagg = aggregate(tasks);
    ContentionBreakdown c;

    if (!partition.isolated()) {
        // Shared LLC: conflict misses grow smoothly once combined
        // working sets pass ~half the capacity, and steeply past
        // capacity.
        const double total_llc = self.llcMb + pagg.llc + tagg.llc;
        const double occupancy = total_llc / llcMb;
        if (occupancy > 0.5) {
            const double x = (occupancy - 0.5) / 0.7;
            c.llc = std::min(x * x, 1.6);
        }

        // Memory bandwidth: queueing delay grows once total demand
        // passes ~35% of peak (DDR scheduling conflicts), steeply as
        // it approaches saturation.
        const double total_bw = self.membwGbs + pagg.bw + tagg.bw;
        const double util = total_bw / peakBw;
        if (util > 0.35) {
            const double x = (util - 0.35) / 0.65;
            c.membw = std::min(x * x, 1.6);
        }
    } else {
        // The service-side partition is private to the interactive
        // service(s): LLC contention exists only if their combined
        // working sets overflow the isolated allocation.
        const double svc_cap = partition.serviceCapacityMb();
        const double svc_occ = (self.llcMb + pagg.llc) / svc_cap;
        if (svc_occ > 0.8) {
            const double x = (svc_occ - 0.8) / 0.7;
            c.llc = std::min(x * x, 1.6);
        }

        // Tasks squeezed into the remaining ways miss more, which
        // amplifies their DRAM traffic — partitioning shifts pressure
        // from the LLC channel to the bandwidth channel. Peer
        // services live inside the partition and hit the memory
        // channels unamplified.
        const double amplified_bw =
            tagg.bw * partition.corunnerBwAmplification(tagg.llc);
        const double util = (self.membwGbs + pagg.bw + amplified_bw) / peakBw;
        if (util > 0.35) {
            const double x = (util - 0.35) / 0.65;
            c.membw = std::min(x * x, 1.6);
        }
    }

    // Compute: containers are pinned to disjoint physical cores, so
    // only frequency/power coupling remains — a small effect
    // proportional to the co-runners' aggregate utilization.
    c.compute = std::min(0.10 * (pagg.compute + tagg.compute), 0.5);

    c.activity = std::min(pagg.activity + tagg.activity, 1.6);
    return c;
}

} // namespace server
} // namespace pliant
