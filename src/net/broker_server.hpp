// BrokerServer: the network front end of the in-process mq::Broker.
//
// One poll(2)-driven worker thread owns every connection: it accepts
// clients, decodes request frames from per-connection read buffers,
// executes them against the broker, and appends response frames to
// per-connection write buffers (flushed under POLLOUT backpressure). All
// broker calls happen on that one thread, so connection state needs no
// locking.
//
// Blocking semantics are translated, not forwarded: a kGet/kGetBatch with
// a timeout is *parked* instead of blocking the event loop, and the parked
// slot is re-tried after every input-processing pass (every publish enters
// through the same thread) or answered empty when its deadline passes —
// a cooperative long-poll.
//
// Delivery accounting: the server records (queue, delivery_tag) for every
// message it hands a client. When that client disconnects — crash, kill,
// or kClose — the orphaned deliveries are nack-requeued so another
// consumer (or the same one after reconnecting) sees them again:
// at-least-once across the wire, same contract as in-process.
//
// The server is a supervised Component: the AppManager-level Supervisor
// can probe and restart it like any other; the listening socket is bound
// in the constructor so port() is valid (and the ephemeral port resolved)
// before start().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/component.hpp"
#include "src/mq/broker.hpp"
#include "src/mq/tenant.hpp"
#include "src/net/frame.hpp"
#include "src/obs/metrics.hpp"

namespace entk::net {

struct BrokerServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = ephemeral, resolved via port()
  double drain_timeout_s = 2.0;  ///< bound on flushing write buffers at stop
  /// Liveness TTL for connections that announced a worker identity
  /// (kWorkerHello): a worker silent for longer than this is presumed
  /// dead — its connection is dropped and every delivery it held is
  /// nack-requeued so another worker re-executes the tasks. Workers
  /// heartbeat every RemoteBrokerConfig::heartbeat_interval_s (0.25 s
  /// default), so 5 s tolerates ~20 missed beats. <= 0 disables the scan.
  double worker_ttl_s = 5.0;
  /// Tenant table the server binds kHello tenant ids against. When null
  /// the server creates a private auto-registering registry with no
  /// quotas — every pre-tenancy deployment keeps its exact behavior.
  mq::TenantRegistryPtr tenants;
  /// Accept cap: connections past this limit are refused with a clean
  /// kError frame instead of growing the fd table without bound.
  /// 0 = unlimited.
  std::size_t max_connections = 0;
  /// Deficit-round-robin quantum of the fair input pass: bytes of request
  /// frames one tenant may process per scheduling round while other
  /// tenants have frames waiting. Only engaged when connections of two or
  /// more distinct tenants hold buffered input — a single-tenant daemon
  /// never pays the scheduling overhead.
  std::size_t fair_quantum_bytes = 64 * 1024;
};

class BrokerServer : public Component {
 public:
  /// Binds and listens immediately (throws NetError on failure); the event
  /// loop starts serving on start().
  BrokerServer(mq::BrokerPtr broker, BrokerServerConfig config,
               ProfilerPtr profiler);
  ~BrokerServer() override;

  /// The bound port (stable across restarts of this instance).
  std::uint16_t port() const { return port_; }

  /// Endpoint string clients can dial ("host:port").
  std::string endpoint() const;

  /// Attach metrics: frame/byte counters, connection gauge and a per-op
  /// service-time histogram under "net.server.*" (plus the base
  /// component.* lifecycle counters). Attach before start().
  void set_metrics(obs::MetricsPtr metrics);

  std::size_t connection_count() const {
    return conn_count_.load(std::memory_order_relaxed);
  }

  /// Deliveries nack-requeued because their consumer disconnected (or a
  /// worker's TTL expired). Always counted, metrics attached or not — the
  /// daemon's periodic stats line reports it.
  std::uint64_t requeued_on_disconnect() const {
    return requeued_total_.load(std::memory_order_relaxed);
  }

  /// Connections refused at the max_connections cap (always counted).
  std::uint64_t rejected_at_capacity() const {
    return rejected_at_capacity_.load(std::memory_order_relaxed);
  }

  /// Publishes rejected by a tenant quota, across all tenants (always
  /// counted; per-tenant splits live on the TenantRegistry).
  std::uint64_t quota_rejections() const {
    return quota_rejections_.load(std::memory_order_relaxed);
  }

  /// The tenant table this server binds connections against (the config's,
  /// or the private default registry when none was supplied).
  const mq::TenantRegistryPtr& tenants() const { return tenants_; }

 protected:
  void on_start() override;
  void on_stop_requested() override;
  void on_stopped() override;

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::size_t rbuf_off = 0;
    /// Pending response buffers, FIFO. A response is queued as its frame
    /// header plus (separately) its body buffer, moved — not copied — in;
    /// the flush hands the whole queue to one sendmsg as an iovec array,
    /// so a get_batch of N messages leaves in a single syscall without
    /// ever being assembled contiguously.
    std::deque<std::string> wq;
    std::size_t wq_front_off = 0;  ///< bytes of wq.front() already sent
    std::size_t wq_bytes = 0;      ///< unsent bytes across the queue
    /// Deliveries handed to this client and not yet acked/nacked:
    /// requeued on disconnect.
    std::vector<std::pair<std::string, std::uint64_t>> unacked;
    bool closing = false;  ///< kClose received: drop once writes drain
    /// Worker identity announced via kWorkerHello; empty for ordinary
    /// clients. Identified workers are subject to worker_ttl_s.
    std::string worker_id;
    /// Last time any bytes arrived from this peer (heartbeats count).
    Clock::time_point last_activity;
    /// Tenant this connection is bound to (the default tenant until a
    /// kHello names another). Queue names in request frames are qualified
    /// into its namespace; publishes are admitted against its quota.
    std::shared_ptr<mq::Tenant> tenant;
    bool hello_seen = false;  ///< a kHello bound this connection already
  };

  /// A long-poll get waiting for a message or its deadline.
  struct ParkedGet {
    int fd = -1;
    std::uint64_t corr = 0;
    std::string queue;
    std::size_t max_n = 1;
    bool batch = false;
    Clock::time_point deadline;
  };

  void poll_loop();
  void accept_clients();
  /// Read what the socket has; returns false when the peer is gone.
  bool read_input(Conn& conn);
  /// Decode and execute one complete frame from the read buffer. Returns
  /// false when only a partial frame is buffered; sets *cost to the wire
  /// bytes the frame consumed (the DRR accounting unit). Throws on a
  /// framing violation.
  bool process_one_frame(Conn& conn, std::size_t* cost);
  /// Decode and execute every complete frame in the read buffer.
  void process_frames(Conn& conn);
  /// Fair input pass: process buffered frames across all live connections,
  /// deficit-round-robin by tenant when more than one tenant has input
  /// pending, so a flooding tenant's burst cannot starve the others'
  /// requests within a pass. Appends connections that hit framing
  /// violations to `dead` (already-listed fds are skipped).
  void process_frames_fair(std::vector<int>& dead);
  void handle_frame(Conn& conn, Frame&& req);
  /// Admit `n` published messages against the connection's tenant quota.
  /// On rejection answers kErrQuota (with a retry-after hint) and returns
  /// false.
  bool admit_publish(Conn& conn, std::uint64_t corr, std::size_t n,
                     std::size_t incoming_bytes);
  void respond(Conn& conn, Frame&& resp);
  /// Flush the write queue (scatter-gather, one sendmsg per pass); returns
  /// false on a dead socket.
  bool flush_writes(Conn& conn);
  /// Retry every parked get; answer expired ones empty.
  void service_parked();
  /// Answer one get against the broker right now. Returns false when the
  /// queue is empty (caller parks or answers empty).
  bool try_answer_get(Conn& conn, std::uint64_t corr, const std::string& queue,
                      std::size_t max_n, bool batch);
  /// Drop connections whose announced worker identity has been silent
  /// beyond worker_ttl_s (their unacked deliveries requeue via drop_conn).
  void expire_workers();
  void drop_conn(int fd, bool requeue_unacked);
  void forget_unacked(const std::string& queue);
  /// Best-effort flush of pending responses at stop, bounded by
  /// drain_timeout_s.
  void drain_connections();
  void record_op_us(Clock::time_point started);

  mq::BrokerPtr broker_;
  const BrokerServerConfig config_;
  mq::TenantRegistryPtr tenants_;
  std::shared_ptr<mq::Tenant> default_tenant_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};

  // Owned by the poll worker; touched outside it only between start/stop.
  std::map<int, Conn> conns_;
  std::vector<ParkedGet> parked_;

  std::atomic<std::size_t> conn_count_{0};
  /// Always-on requeue accounting (the obs counter below mirrors it when
  /// metrics are attached).
  std::atomic<std::uint64_t> requeued_total_{0};
  std::atomic<std::uint64_t> rejected_at_capacity_{0};
  std::atomic<std::uint64_t> quota_rejections_{0};

  // Pre-resolved "net.server.*" handles; all null when metrics are off.
  obs::MetricsPtr net_metrics_;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* requeued_on_disconnect_ = nullptr;
  obs::Counter* quota_rejections_metric_ = nullptr;
  obs::Counter* rejected_at_capacity_metric_ = nullptr;
  obs::Gauge* connections_ = nullptr;
  obs::Histogram* op_us_ = nullptr;
};

}  // namespace entk::net
