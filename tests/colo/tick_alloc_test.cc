/**
 * @file
 * A warmed-up colo::Engine tick loop performs zero heap allocations,
 * with observability off and on and with an admission front-end —
 * the property the engine-owned hot-loop buffers and the frozen
 * metrics registry exist to provide — and so does the monitor's
 * interval close, which selects the p99 inside the window it owns.
 *
 * The file overrides the global allocation functions, so it must
 * stay its own test binary.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "colo/builder.hh"
#include "colo/engine.hh"
#include "core/monitor.hh"
#include "util/rng.hh"

// ---------------------------------------------------------------------
// Global allocation counter. Each *_test.cc builds into its own
// binary, so overriding the global allocation functions here observes
// every heap allocation in the process, the aligned forms included.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else {
        // aligned_alloc requires size to be a multiple of alignment.
        const std::size_t rounded = (size + align - 1) / align * align;
        p = std::aligned_alloc(align, rounded);
    }
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace pliant;
using namespace pliant::colo;

constexpr sim::Time kS = sim::kSecond;

TEST(TickAllocTest, WarmTickLoopPerformsZeroHeapAllocations)
{
    // Constant-load tenants keep each tick's sample-vector size
    // fixed, so after warmup every per-tick buffer (the engine-owned
    // peer-pressure array included) has reached its steady capacity.
    // The measured window (10.2s -> 10.9s) crosses
    // no decision-interval close — the next timeline append (which
    // legitimately allocates) happens at 11s.
    const ColoConfig cfg =
        ConfigBuilder()
            .service("mc-a", services::ServiceKind::Memcached,
                     Scenario::constant(0.70))
            .service("mc-b", services::ServiceKind::Memcached,
                     Scenario::constant(0.60))
            .service("ng", services::ServiceKind::Nginx,
                     Scenario::constant(0.55))
            .apps({"canneal", "bayesian"})
            .runtime(core::RuntimeKind::Pliant)
            .seed(5)
            .build();
    Engine engine(cfg);
    engine.advanceUntil(sim::Time(10.2 * kS));

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    engine.advanceUntil(sim::Time(10.9 * kS));
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0U)
        << "warm tick loop allocated " << (after - before)
        << " times between 10.2s and 10.9s";
}

TEST(TickAllocTest, WarmTickLoopStaysZeroAllocWithMetricsEnabled)
{
    // The observability contract: the registry allocates at
    // registration (engine construction) and at snapshot, never per
    // update. Same window as the test above, now
    // with counters/stats/phase timers recording every tick.
    const ColoConfig cfg =
        ConfigBuilder()
            .service("mc-a", services::ServiceKind::Memcached,
                     Scenario::constant(0.70))
            .service("mc-b", services::ServiceKind::Memcached,
                     Scenario::constant(0.60))
            .service("ng", services::ServiceKind::Nginx,
                     Scenario::constant(0.55))
            .apps({"canneal", "bayesian"})
            .runtime(core::RuntimeKind::Pliant)
            .seed(5)
            .observability(true)
            .build();
    Engine engine(cfg);
    engine.advanceUntil(sim::Time(10.2 * kS));

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    engine.advanceUntil(sim::Time(10.9 * kS));
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0U)
        << "metrics-enabled warm tick loop allocated " << (after - before)
        << " times between 10.2s and 10.9s";
}

TEST(TickAllocTest, WarmTickLoopStaysZeroAllocWithAdmission)
{
    // The admission branch of the per-sample pass: mc-a is offered
    // 1.10 of saturation, so its QoS-guided shed and adaptive
    // batching front-end queues, sheds and adds queue delay to every
    // sample — and still must not allocate. Same window as above.
    const ColoConfig cfg =
        ConfigBuilder()
            .service("mc-a", services::ServiceKind::Memcached,
                     Scenario::constant(1.10))
            .service("mc-b", services::ServiceKind::Memcached,
                     Scenario::constant(0.60))
            .service("ng", services::ServiceKind::Nginx,
                     Scenario::constant(0.55))
            .apps({"canneal", "bayesian"})
            .runtime(core::RuntimeKind::Pliant)
            .admission(admission::AdmissionKind::QosShed,
                       admission::BatchingKind::Adaptive)
            .seed(5)
            .build();
    Engine engine(cfg);
    engine.advanceUntil(sim::Time(10.2 * kS));

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    engine.advanceUntil(sim::Time(10.9 * kS));
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0U)
        << "admission-enabled warm tick loop allocated " << (after - before)
        << " times between 10.2s and 10.9s";
    // The front-end is engaged: the last closed interval saw queue
    // delay on mc-a's samples.
    EXPECT_GT(engine.lastReports().front().queueDelayUs, 0.0);
}

TEST(TickAllocTest, MonitorIntervalCloseIsAllocationFree)
{
    // The engine windows above cross no decision-interval close; this
    // pins the close itself. 30,000 offered samples overflow the
    // 4096-sample budget, so every interval runs reservoir
    // replacement and then the in-place top-k selection over a full
    // window. The window's capacity is reserved at construction.
    core::PerformanceMonitor monitor(4096, 17);
    util::SplitMix64 sm(0xC105Eu);

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    double p99_sum = 0.0;
    for (int interval = 0; interval < 3; ++interval) {
        for (int i = 0; i < 30000; ++i)
            monitor.observe(100.0 + static_cast<double>(sm.next() % 5000));
        const core::IntervalReport report = monitor.closeInterval();
        EXPECT_EQ(report.samples, 4096u);
        p99_sum += report.p99Us;
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0U)
        << "monitor observe + closeInterval allocated " << (after - before)
        << " times over 3 overflowed intervals";
    EXPECT_GT(p99_sum, 0.0);
}

} // namespace
