/**
 * @file
 * Trace export: serialize a ColoResult's timeline and summary to CSV
 * so external plotting tools can regenerate the paper's figures from
 * the same data the text benches print.
 */

#ifndef PLIANT_COLO_TRACE_HH
#define PLIANT_COLO_TRACE_HH

#include <ostream>

#include "colo/engine.hh"

namespace pliant {
namespace colo {

/**
 * Write the per-interval timeline as CSV. Columns:
 * t_s, p99_us, p99_over_qos, load, decision, partition_ways,
 * then per app: <name>_variant, <name>_reclaimed, and — for
 * multi-service runs — per additional service: <name>_p99_us,
 * <name>_load. The base p99/load columns always refer to the
 * primary (first) service, so single-service traces are unchanged.
 * Runs with the admission front-end enabled additionally get, per
 * service: <name>_shed, <name>_qdelay_us — the columns are keyed on
 * ColoResult::admissionEnabled so disabled runs stay byte-identical.
 * Requires a retained timeline (ColoConfig::retainTimeline).
 */
void writeTimelineCsv(std::ostream &os, const ColoResult &result);

/**
 * Write the experiment summary as CSV (with header): one row per
 * interactive service, so a single-service run stays a single row.
 * Admission-enabled runs append shed_fraction,
 * mean_queue_delay_us, and mean_batch_size columns. App-less nodes
 * (legal cluster states) print "-" for the per-app means instead of
 * dividing by zero.
 */
void writeSummaryCsv(std::ostream &os, const ColoResult &result);

} // namespace colo
} // namespace pliant

#endif // PLIANT_COLO_TRACE_HH
