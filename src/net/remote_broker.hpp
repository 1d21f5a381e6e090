// RemoteBroker: a BrokerHandle speaking the framed wire protocol to an
// entk_broker daemon.
//
// One multiplexed TCP connection carries every component's traffic: caller
// threads assign a correlation id, register a pending slot, write the
// request frame (serialized by a write mutex) and block on the slot; a
// single io thread reads response frames and completes slots by
// correlation id. Long-poll gets therefore don't starve each other — the
// server parks them and the client just waits on its own slot.
//
// The io thread also owns liveness: it sends heartbeat frames (corr = 0)
// every heartbeat_interval_s, treats a missing echo as a dead connection,
// and runs the reconnect loop with exponential backoff. On reconnect it
// re-declares every queue this client ever declared (fire-and-forget,
// before the handle is marked connected, so TCP ordering puts the
// declares ahead of any retried operation).
//
// Failure semantics per operation class:
//   * publish / publish_batch / declare / has_queue — retried across
//     reconnects until retry_deadline_s, then NetError. A retry after a
//     lost response may duplicate a publish: at-least-once, the same
//     contract redelivery already imposes on consumers.
//   * get / get_batch — single-shot: empty on a dead connection (every
//     component polls in a loop anyway).
//   * ack / ack_batch / nack — single-shot: failure means the broker will
//     redeliver (it requeued our unacked messages when the connection
//     died), which is exactly what un-acked means.
//   * depth_snapshot — best-effort, {} when disconnected.
//   * kError responses (semantic failures like an unknown queue) rethrow
//     as MqError immediately, never retried.
//
// health() reports the *server's* broker health (sticky journal errors
// forwarded on heartbeat echoes) — not transient connection loss, which
// the reconnect loop owns; a restarting daemon must not read as a fatal
// condition to the Supervisor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/mq/broker_handle.hpp"
#include "src/net/frame.hpp"
#include "src/obs/metrics.hpp"

namespace entk::net {

struct RemoteBrokerConfig {
  std::string endpoint;            ///< "host:port"
  double connect_timeout_s = 2.0;  ///< per connect attempt
  double initial_backoff_s = 0.05;
  double max_backoff_s = 1.0;
  double retry_deadline_s = 30.0;  ///< bound on retried operations
  double heartbeat_interval_s = 0.25;
  double response_grace_s = 5.0;   ///< response wait beyond the op timeout
  /// Tenant namespace this client binds via kHello (the hello body carries
  /// the id on every (re)connect). Empty = the default tenant: no hello is
  /// sent at all. The daemon rejects an unknown/invalid id with kError and
  /// drops the connection — the retried operation then fails with MqError
  /// instead of silently running in the wrong namespace.
  std::string tenant;
  /// When non-empty, announce this connection as an execution worker
  /// (kWorkerHello on every (re)connect): the server then applies its
  /// worker liveness TTL, dropping the connection — and requeuing its
  /// unacked deliveries — if the worker falls silent.
  std::string worker_id;
};

class RemoteBroker : public mq::BrokerHandle {
 public:
  /// Dials the endpoint synchronously (one attempt, connect_timeout_s) so
  /// a wrong address fails fast; throws NetError when unreachable or
  /// malformed. Reconnection after that is automatic and backgrounded.
  explicit RemoteBroker(RemoteBrokerConfig config);
  ~RemoteBroker() override;

  RemoteBroker(const RemoteBroker&) = delete;
  RemoteBroker& operator=(const RemoteBroker&) = delete;

  /// Attach metrics: frame/byte counters, reconnect counter and per-op
  /// round-trip histograms under "net.client.*". Attach before use.
  void set_metrics(obs::MetricsPtr metrics);

  // --- BrokerHandle --------------------------------------------------------
  /// Remote declare; returns nullptr (the queue lives in the daemon).
  std::shared_ptr<mq::Queue> declare_queue(const std::string& queue,
                                           mq::QueueOptions options = {}) override;
  bool has_queue(const std::string& queue) const override;
  std::uint64_t publish(const std::string& queue, mq::Message msg) override;
  std::uint64_t publish_batch(const std::string& queue,
                              std::vector<mq::Message> msgs) override;
  std::optional<mq::Delivery> get(const std::string& queue,
                                  double timeout_s) override;
  std::vector<mq::Delivery> get_batch(const std::string& queue,
                                      std::size_t max_n,
                                      double timeout_s) override;
  bool ack(const std::string& queue, std::uint64_t delivery_tag) override;
  bool nack(const std::string& queue, std::uint64_t delivery_tag,
            bool requeue) override;
  std::size_t ack_batch(
      const std::string& queue,
      const std::vector<std::uint64_t>& delivery_tags) override;
  std::size_t requeue_unacked(const std::string& queue) override;
  std::vector<mq::QueueDepth> depth_snapshot() const override;
  void close() override;
  bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }
  std::string health() const override;

  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// kErrQuota responses absorbed by the retry loop (per-tenant
  /// backpressure events; each one cost a retry-after sleep).
  std::uint64_t quota_throttled() const {
    return quota_throttled_.load(std::memory_order_relaxed);
  }

 private:
  struct PendingSlot {
    bool done = false;
    bool failed = false;
    Frame response;
    std::string error;
  };

  void io_loop();
  /// Fire-and-forget kHello binding config_.tenant (run on every
  /// (re)connect; skipped for the default tenant).
  void send_hello();
  /// Fire-and-forget kWorkerHello when config_.worker_id is set (run on
  /// every (re)connect, like the tenant hello).
  void announce_worker();
  /// Read/dispatch/heartbeat until the connection dies or close() runs.
  void serve_connection(int fd);
  void dispatch(Frame&& resp);
  void fail_pending(const std::string& why);
  /// Encode + write one frame on the live connection. Returns false when
  /// there is no live connection or the write fails (the io thread then
  /// tears the connection down).
  bool send_frame(const Frame& frame) const;
  /// Block until connected, close() or the timeout. Returns connected().
  bool wait_connected(double timeout_s) const;
  /// Send `req` and wait up to `wait_s` for its response. Returns the
  /// response frame, or nullopt on a transport failure (error text in
  /// *why). Throws MqError when the server answered kError.
  std::optional<Frame> roundtrip(Frame req, double wait_s,
                                 std::string* why) const;
  /// roundtrip with reconnect-and-retry until retry_deadline_s; NetError
  /// after the deadline.
  Frame roundtrip_retry(const Frame& req, const char* op_name) const;
  void observe_op(obs::Histogram* h,
                  std::chrono::steady_clock::time_point started) const;

  const RemoteBrokerConfig config_;
  std::string host_;
  std::uint16_t port_ = 0;

  // Connection state. fd_ is guarded by write_mutex_ (senders write on it;
  // the io thread installs/closes it under the same mutex).
  mutable std::mutex write_mutex_;
  int fd_ = -1;
  std::atomic<bool> connected_{false};
  std::atomic<bool> closed_{false};
  mutable std::mutex conn_mutex_;
  mutable std::condition_variable conn_cv_;

  // Request/response multiplexing.
  mutable std::mutex pending_mutex_;
  mutable std::condition_variable pending_cv_;
  mutable std::map<std::uint64_t, PendingSlot> pending_;
  mutable std::atomic<std::uint64_t> next_corr_{1};

  // Queues declared through this handle, re-declared after reconnect.
  mutable std::mutex declared_mutex_;
  std::map<std::string, bool> declared_;  // name -> durable requested

  // Server-reported health, refreshed by heartbeat echoes.
  mutable std::mutex health_mutex_;
  std::string last_health_;
  std::atomic<std::int64_t> last_pong_us_{0};

  std::atomic<std::uint64_t> reconnects_{0};
  /// Mutable: throttles are absorbed inside const request paths
  /// (publish goes through the const roundtrip_retry).
  mutable std::atomic<std::uint64_t> quota_throttled_{0};
  std::thread io_thread_;

  // Pre-resolved "net.client.*" handles; all null when metrics are off.
  obs::MetricsPtr metrics_;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* reconnects_metric_ = nullptr;
  obs::Counter* quota_throttled_metric_ = nullptr;
  obs::Histogram* publish_us_ = nullptr;
  obs::Histogram* publish_batch_us_ = nullptr;
  obs::Histogram* get_us_ = nullptr;
  obs::Histogram* get_batch_us_ = nullptr;
  obs::Histogram* ack_us_ = nullptr;
  obs::Histogram* ack_batch_us_ = nullptr;
};

}  // namespace entk::net
