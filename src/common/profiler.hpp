// Event profiler used to derive the paper's overhead categories.
//
// Every component records named events with a wall-clock microsecond
// timestamp (and, where meaningful, a virtual-time annotation). The
// OverheadReport in src/core then derives durations such as "EnTK Setup
// Overhead" or "RTS Tear-Down Overhead" as differences between the first and
// last occurrence of well-known event names — the same methodology the
// reference implementation applies to its profiler traces.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/chunked_log.hpp"

namespace entk {

struct ProfileEvent {
  std::int64_t wall_us = 0;   ///< wall time of the event (process epoch)
  double virtual_s = -1.0;    ///< virtual time, or -1 when not applicable
  std::string component;      ///< emitting component, e.g. "wfprocessor"
  std::string event;          ///< event name, e.g. "enqueue_task"
  std::string uid;            ///< subject uid, may be empty
};

/// Thread-safe append-only event recorder.
class Profiler {
 public:
  void record(const std::string& component, const std::string& event,
              const std::string& uid = "", double virtual_s = -1.0);

  /// Snapshot of all recorded events, in record order.
  std::vector<ProfileEvent> events() const;

  /// Number of recorded events.
  std::size_t size() const;

  /// Wall time of the first/last occurrence of `event`, if any. Served
  /// from a per-event-name index maintained by record(), so callers like
  /// OverheadReport (dozens of queries per report) never rescan the log.
  std::optional<std::int64_t> first_us(const std::string& event) const;
  std::optional<std::int64_t> last_us(const std::string& event) const;

  /// last_us(end_event) - first_us(start_event), in seconds.
  /// Returns 0 when either event is missing.
  double span_s(const std::string& start_event,
                const std::string& end_event) const;

  /// Sum over matching pairs: for each uid, last(end) - first(start).
  /// Used for per-task aggregates such as total staging time.
  double paired_sum_s(const std::string& start_event,
                      const std::string& end_event) const;

  /// Count occurrences of `event` (indexed, O(1)).
  std::size_t count(const std::string& event) const;

  /// Write all events as CSV ("wall_us,virtual_s,component,event,uid").
  /// Fields are quoted per RFC 4180 when they contain a comma, quote or
  /// newline, so arbitrary event/uid strings round-trip.
  void dump_csv(const std::string& path) const;

  void clear();

 private:
  /// first/last timestamp and count per event name, updated by record().
  struct EventIndexEntry {
    std::int64_t first_us = 0;
    std::int64_t last_us = 0;
    std::size_t count = 0;
  };

  mutable std::mutex mutex_;
  ChunkedLog<ProfileEvent> events_;
  std::unordered_map<std::string, EventIndexEntry> index_;
};

using ProfilerPtr = std::shared_ptr<Profiler>;

/// Read back a CSV written by Profiler::dump_csv (RFC 4180 quoting).
/// Throws EnTKError on unreadable file or malformed rows.
std::vector<ProfileEvent> read_profile_csv(const std::string& path);

}  // namespace entk
