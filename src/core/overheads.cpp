#include "src/core/overheads.hpp"

#include <algorithm>
#include <cstdio>

namespace entk {
namespace {

struct VirtualSpans {
  double rts_init = 0.0;
  double rts_teardown = 0.0;
  double exec_span = 0.0;       // first exec start -> last exec end
  double staging_total = 0.0;   // sum of per-unit staging durations
  double staging_span = 0.0;    // first staging start -> last staging stop
  double lead_in = 0.0;         // avg unit wait: received -> exec start,
                                // staging excluded
  double lead_out = 0.0;        // avg unit wait: exec end -> done,
                                // staging excluded
};

VirtualSpans from_trace(const obs::Trace& trace) {
  VirtualSpans out;
  out.rts_init = trace.rts_init_s();
  out.rts_teardown = trace.rts_teardown_s();
  out.exec_span = trace.exec_span_s();
  out.staging_span = trace.staging_span_s();

  // Lead-in uses the FIRST unit only: later units may legitimately queue
  // for cores (strong scaling runs multiple generations), and that wait is
  // workload time, not RTS overhead. The first unit of a run never waits.
  double first_received = -1;
  double lead_out_sum = 0;
  std::size_t n_out = 0;
  for (const auto& [uid, task] : trace.tasks) {
    (void)uid;
    const obs::UnitVirtualTimes& u = task.vt;
    out.staging_total += u.stage_in + u.stage_out;
    if (u.received >= 0 && u.exec_start >= u.received &&
        (first_received < 0 || u.received < first_received)) {
      first_received = u.received;
      out.lead_in = std::max(0.0, u.exec_start - u.received - u.stage_in);
    }
    if (u.exec_end >= 0 && u.done >= u.exec_end) {
      lead_out_sum += std::max(0.0, u.done - u.exec_end - u.stage_out);
      ++n_out;
    }
  }
  if (n_out > 0) out.lead_out = lead_out_sum / static_cast<double>(n_out);
  return out;
}

}  // namespace

OverheadReport compute_overheads(const obs::Trace& trace,
                                 const OverheadInputs& in) {
  OverheadReport r;
  const VirtualSpans v = from_trace(trace);

  r.entk_setup_measured_s = in.setup_wall_s;
  r.entk_mgmt_measured_s = in.mgmt_wall_s;
  r.entk_teardown_measured_s = in.teardown_wall_s;

  r.entk_setup_model_s = in.host.factor * in.host.setup_c;
  r.entk_mgmt_model_s =
      in.host.factor *
      (in.host.mgmt_c0 +
       in.host.mgmt_c1 * static_cast<double>(in.tasks_processed));
  r.entk_teardown_model_s = in.host.factor * in.host.teardown_c;

  r.entk_setup_s = r.entk_setup_measured_s + r.entk_setup_model_s;
  r.entk_mgmt_s = r.entk_mgmt_measured_s + r.entk_mgmt_model_s;
  r.entk_teardown_s = r.entk_teardown_measured_s + r.entk_teardown_model_s;

  // RTS overhead: resource acquisition/bootstrap plus the average per-unit
  // submission/dispatch latencies the RTS adds around execution.
  r.rts_overhead_s = v.rts_init + v.lead_in + v.lead_out;
  r.rts_teardown_s = v.rts_teardown;
  r.staging_s = v.staging_total;
  r.staging_span_s = v.staging_span;
  r.task_exec_s = v.exec_span;
  return r;
}

std::string OverheadReport::to_table() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  EnTK Setup Overhead      %10.3f s  (measured %.4f + model %.3f)\n"
      "  EnTK Management Overhead %10.3f s  (measured %.4f + model %.3f)\n"
      "  EnTK Tear-Down Overhead  %10.3f s  (measured %.4f + model %.3f)\n"
      "  RTS Overhead             %10.3f s\n"
      "  RTS Tear-Down Overhead   %10.3f s\n"
      "  Data Staging Time        %10.3f s\n"
      "  Task Execution Time      %10.3f s\n"
      "  tasks done/failed/resub  %zu/%zu/%zu  rts restarts %d\n"
      "  component restarts       %d\n",
      entk_setup_s, entk_setup_measured_s, entk_setup_model_s, entk_mgmt_s,
      entk_mgmt_measured_s, entk_mgmt_model_s, entk_teardown_s,
      entk_teardown_measured_s, entk_teardown_model_s, rts_overhead_s,
      rts_teardown_s, staging_s, task_exec_s, tasks_done, tasks_failed,
      resubmissions, rts_restarts, component_restarts);
  std::string out = buf;
  if (!failed_component.empty()) {
    out += "  FAILED component         " + failed_component + ": " +
           failure_reason + "\n";
  }
  return out;
}

}  // namespace entk
