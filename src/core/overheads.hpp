// Overhead accounting (paper §IV-A-2).
//
// Derives the seven durations the paper characterizes from the run's
// profiler trace and component busy counters:
//   EnTK Setup / Management / Tear-Down Overhead   (toolkit control plane)
//   RTS Overhead / RTS Tear-Down Overhead          (runtime system)
//   Data Staging Time / Task Execution Time        (workload, virtual time)
// EnTK values carry both the measured C++ wall cost and the documented
// host-emulation model (see HostModel); RTS and workload values are read
// from virtual-time profiler events.
#pragma once

#include <cstddef>
#include <string>

#include "src/core/resource.hpp"
#include "src/obs/trace.hpp"

namespace entk {

struct OverheadReport {
  // Paper-comparable values (seconds).
  double entk_setup_s = 0.0;
  double entk_mgmt_s = 0.0;
  double entk_teardown_s = 0.0;
  double rts_overhead_s = 0.0;
  double rts_teardown_s = 0.0;
  double staging_s = 0.0;      ///< total data staging (virtual, summed)
  double staging_span_s = 0.0; ///< staging makespan: first start -> last
                               ///< stop (shows stager parallelism)
  double task_exec_s = 0.0;    ///< first exec start -> last exec end (virtual)

  // Decomposition of the EnTK values.
  double entk_setup_measured_s = 0.0;
  double entk_mgmt_measured_s = 0.0;
  double entk_teardown_measured_s = 0.0;
  double entk_setup_model_s = 0.0;
  double entk_mgmt_model_s = 0.0;
  double entk_teardown_model_s = 0.0;

  // Workload counters.
  std::size_t tasks_done = 0;
  std::size_t tasks_failed = 0;
  std::size_t resubmissions = 0;
  int rts_restarts = 0;
  int component_restarts = 0;  ///< supervisor restarts of EnTK components

  // First unrecoverable component failure of the run ("" = clean run):
  // set when a restart budget is exhausted and the run was aborted.
  std::string failed_component;
  std::string failure_reason;

  /// Render as an aligned human-readable block (used by benches).
  std::string to_table() const;
};

struct OverheadInputs {
  double setup_wall_s = 0.0;
  double mgmt_wall_s = 0.0;      ///< sum of component busy counters
  double teardown_wall_s = 0.0;  ///< EnTK-only teardown (RTS excluded)
  std::size_t tasks_processed = 0;
  HostModel host;
};

/// Compute the report from a stitched trace (obs::build_trace): the seven
/// paper categories derive from the trace's virtual-time aggregates and
/// per-unit spans rather than raw event-name scans.
OverheadReport compute_overheads(const obs::Trace& trace,
                                 const OverheadInputs& inputs);

}  // namespace entk
