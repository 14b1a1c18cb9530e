/**
 * @file
 * Fixed-step simulation clock and a periodic-callback scheduler.
 *
 * The Pliant testbed is a discrete-time simulation: the server model
 * advances in fixed ticks (default 10 ms), while runtimes register
 * periodic callbacks at their own decision intervals (default 1 s).
 */

#ifndef PLIANT_SIM_CLOCK_HH
#define PLIANT_SIM_CLOCK_HH

#include <functional>
#include <vector>

#include "sim/time.hh"

namespace pliant {
namespace sim {

/**
 * Monotonic simulated clock advanced in fixed steps.
 */
class Clock
{
  public:
    /** @param step tick duration; must be positive. */
    explicit Clock(Time step = 10 * kMillisecond);

    Time now() const { return current; }
    Time step() const { return stepSize; }

    /** Advance one tick and return the new time. */
    Time advance();

  private:
    Time stepSize;
    Time current = 0;
};

/**
 * Runs callbacks at fixed periods on top of a Clock. Callbacks whose
 * period is not a multiple of the tick fire on the first tick at or
 * after their deadline.
 */
class PeriodicScheduler
{
  public:
    using Callback = std::function<void(Time)>;

    /**
     * Register a periodic callback.
     * @param period interval between invocations; must be positive.
     * @param cb invoked with the current time.
     * @param fireAtZero whether the callback also fires at t = 0.
     */
    void addPeriodic(Time period, Callback cb, bool fireAtZero = false);

    /** Invoke all callbacks that are due at or before `now`. */
    void runDue(Time now);

    std::size_t taskCount() const { return tasks.size(); }

  private:
    struct Task
    {
        Time period;
        Time next;
        Callback cb;
    };

    std::vector<Task> tasks;
};

} // namespace sim
} // namespace pliant

#endif // PLIANT_SIM_CLOCK_HH
