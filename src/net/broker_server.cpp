#include "src/net/broker_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "src/common/log.hpp"
#include "src/net/socket.hpp"

namespace entk::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kIdlePollMs = 20;
// Buffers handed to one sendmsg. Linux caps msg_iovlen at IOV_MAX (1024);
// 256 covers a 128-frame response burst (header + body per frame).
constexpr std::size_t kMaxWriteIov = 256;

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

BrokerServer::BrokerServer(mq::BrokerPtr broker, BrokerServerConfig config,
                           ProfilerPtr profiler)
    : Component("broker_server", std::move(profiler)),
      broker_(std::move(broker)),
      config_(std::move(config)) {
  // No registry supplied: a private auto-registering one with no quotas,
  // so a pre-tenancy deployment behaves exactly as before.
  tenants_ = config_.tenants != nullptr
                 ? config_.tenants
                 : std::make_shared<mq::TenantRegistry>();
  default_tenant_ = tenants_->bind("");
  listen_fd_ = listen_tcp(config_.bind_address, config_.port);
  set_nonblocking(listen_fd_, true);
  port_ = local_port(listen_fd_);
  if (::pipe(wake_pipe_) != 0) {
    close_fd(listen_fd_);
    listen_fd_ = -1;
    throw NetError("net: wake pipe: " + std::string(strerror(errno)));
  }
  set_nonblocking(wake_pipe_[0], true);
  set_nonblocking(wake_pipe_[1], true);
}

BrokerServer::~BrokerServer() {
  stop();
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  for (auto& [fd, conn] : conns_) close_fd(fd);
  conns_.clear();
}

std::string BrokerServer::endpoint() const {
  return config_.bind_address + ":" + std::to_string(port_);
}

void BrokerServer::set_metrics(obs::MetricsPtr metrics) {
  Component::set_metrics(metrics);
  net_metrics_ = std::move(metrics);
  if (net_metrics_ == nullptr) {
    frames_in_ = frames_out_ = bytes_in_ = bytes_out_ = nullptr;
    requeued_on_disconnect_ = nullptr;
    quota_rejections_metric_ = rejected_at_capacity_metric_ = nullptr;
    connections_ = nullptr;
    op_us_ = nullptr;
    tenants_->set_metrics(nullptr);
    return;
  }
  frames_in_ = &net_metrics_->counter("net.server.frames_in");
  frames_out_ = &net_metrics_->counter("net.server.frames_out");
  bytes_in_ = &net_metrics_->counter("net.server.bytes_in");
  bytes_out_ = &net_metrics_->counter("net.server.bytes_out");
  requeued_on_disconnect_ =
      &net_metrics_->counter("net.server.requeued_on_disconnect");
  quota_rejections_metric_ =
      &net_metrics_->counter("net.server.quota_rejections");
  rejected_at_capacity_metric_ =
      &net_metrics_->counter("net.server.rejected_at_capacity");
  connections_ = &net_metrics_->gauge("net.server.connections");
  op_us_ = &net_metrics_->histogram("net.server.op_us");
  // "tenant.<id>.*" counters/gauges for every current and future tenant.
  tenants_->set_metrics(net_metrics_);
}

void BrokerServer::on_start() {
  if (listen_fd_ < 0) {
    // Restart after a stop/failure: rebind the same port (SO_REUSEADDR
    // makes the rebind immediate).
    listen_fd_ = listen_tcp(config_.bind_address, port_);
    set_nonblocking(listen_fd_, true);
  }
  add_worker("poll", [this] { poll_loop(); });
}

void BrokerServer::on_stop_requested() {
  // Kick the worker out of poll(2) immediately.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    (void)::write(wake_pipe_[1], &byte, 1);
  }
}

void BrokerServer::on_stopped() {
  close_fd(listen_fd_);
  listen_fd_ = -1;
}

void BrokerServer::poll_loop() {
  std::vector<pollfd> pfds;
  while (!stop_requested()) {
    beat();

    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      if (conn.wq_bytes > 0) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
    }

    int timeout_ms = kIdlePollMs;
    if (!parked_.empty()) {
      const auto now = Clock::now();
      for (const ParkedGet& p : parked_) {
        const auto wait_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(p.deadline -
                                                                  now)
                .count();
        timeout_ms = std::clamp<int>(static_cast<int>(wait_ms), 1, timeout_ms);
      }
    }

    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      throw NetError("net: poll(): " + std::string(strerror(errno)));
    }

    if (pfds[0].revents & POLLIN) accept_clients();
    if (pfds[1].revents & POLLIN) {
      char sink[64];
      while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }

    // Input pass in two phases: read every ready socket first, then
    // process the buffered frames — fair-scheduled across tenants. With
    // per-connection processing a flooding client's whole burst executed
    // before the next fd was even read; splitting the phases gives the
    // deficit-round-robin scheduler all tenants' frames to arbitrate.
    std::vector<int> dead;
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      auto it = conns_.find(pfds[i].fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        dead.push_back(pfds[i].fd);
        continue;
      }
      if ((pfds[i].revents & POLLIN) && !read_input(conn)) {
        dead.push_back(pfds[i].fd);
      }
    }
    process_frames_fair(dead);
    for (auto& [fd, conn] : conns_) {
      if (std::find(dead.begin(), dead.end(), fd) != dead.end()) continue;
      bool alive = true;
      if (conn.wq_bytes > 0) alive = flush_writes(conn);
      if (alive && conn.closing && conn.wq_bytes == 0) alive = false;
      if (!alive) dead.push_back(fd);
    }
    for (int fd : dead) drop_conn(fd, /*requeue_unacked=*/true);

    expire_workers();

    // Every publish entered through this thread, so parked long-polls can
    // only be satisfiable now (or expired).
    service_parked();
  }

  drain_connections();
}

void BrokerServer::accept_clients() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next poll pass
    if (config_.max_connections > 0 &&
        conns_.size() >= config_.max_connections) {
      // Refuse cleanly: a best-effort error frame tells the client *why*
      // before the close, instead of letting the fd table grow without
      // bound until accept() itself starts failing with EMFILE.
      // Counted before the send: a client that reads the refusal must
      // already see it in rejected_at_capacity().
      rejected_at_capacity_.fetch_add(1, std::memory_order_relaxed);
      if (rejected_at_capacity_metric_ != nullptr) {
        rejected_at_capacity_metric_->add();
      }
      Frame resp;
      resp.op = Op::kError;
      resp.body = "net: server at connection capacity (" +
                  std::to_string(config_.max_connections) + ")";
      const std::string encoded = encode_frame(resp);
      (void)::send(fd, encoded.data(), encoded.size(), MSG_NOSIGNAL);
      close_fd(fd);
      ENTK_WARN("broker_server")
          << "refused connection: at capacity (" << config_.max_connections
          << ")";
      continue;
    }
    set_nonblocking(fd, true);
    set_nodelay(fd);
    Conn conn;
    conn.fd = fd;
    conn.last_activity = Clock::now();
    conn.tenant = default_tenant_;
    conns_.emplace(fd, std::move(conn));
    conn_count_.store(conns_.size(), std::memory_order_relaxed);
    if (connections_ != nullptr) {
      connections_->set(static_cast<std::int64_t>(conns_.size()));
    }
  }
}

bool BrokerServer::read_input(Conn& conn) {
  // Scatter read: the primary iovec lands directly in the connection's
  // read buffer (no bounce copy); the stack spill vector catches bursts
  // bigger than one chunk in the same syscall. A read that fills neither
  // completely means the socket is drained — skip the extra syscall the
  // old loop-until-EAGAIN paid.
  char spill[kReadChunk];
  while (true) {
    const std::size_t used = conn.rbuf.size();
    conn.rbuf.resize(used + kReadChunk);
    iovec iov[2];
    iov[0] = {conn.rbuf.data() + used, kReadChunk};
    iov[1] = {spill, sizeof spill};
    const ssize_t n = ::readv(conn.fd, iov, 2);
    if (n > 0) {
      const auto got = static_cast<std::size_t>(n);
      if (got <= kReadChunk) {
        conn.rbuf.resize(used + got);
      } else {
        conn.rbuf.append(spill, got - kReadChunk);
      }
      if (bytes_in_ != nullptr) bytes_in_->add(got);
      conn.last_activity = Clock::now();
      if (got < kReadChunk + sizeof spill) return true;  // socket drained
      continue;
    }
    conn.rbuf.resize(used);
    if (n == 0) return false;  // orderly shutdown from the peer
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool BrokerServer::process_one_frame(Conn& conn, std::size_t* cost) {
  const std::size_t before = conn.rbuf_off;
  std::optional<Frame> frame = decode_frame(conn.rbuf, conn.rbuf_off);
  if (!frame.has_value()) return false;
  if (frames_in_ != nullptr) frames_in_->add();
  if (cost != nullptr) *cost = conn.rbuf_off - before;
  // A closing connection's remaining frames are consumed but not served:
  // after a refused hello (invalid/unknown tenant), requests the client
  // pipelined behind the hello must NOT execute in the default tenant —
  // that would be exactly the silent misaddressing the refusal prevents.
  // (After kClose this is equally right: the client said goodbye.)
  if (!conn.closing) handle_frame(conn, std::move(*frame));
  return true;
}

void BrokerServer::process_frames(Conn& conn) {
  while (process_one_frame(conn, nullptr)) {
  }
  if (conn.rbuf_off > 0) {
    conn.rbuf.erase(0, conn.rbuf_off);
    conn.rbuf_off = 0;
  }
}

void BrokerServer::process_frames_fair(std::vector<int>& dead) {
  // Group connections holding buffered input by bound tenant.
  struct Group {
    std::vector<Conn*> conns;
    std::size_t next = 0;       ///< round-robin cursor within the tenant
    std::int64_t deficit = 0;   ///< DRR byte credit
  };
  std::map<std::string, Group> groups;
  for (auto& [fd, conn] : conns_) {
    if (conn.rbuf.size() <= conn.rbuf_off) continue;
    if (std::find(dead.begin(), dead.end(), fd) != dead.end()) continue;
    groups[conn.tenant != nullptr ? conn.tenant->id() : std::string()]
        .conns.push_back(&conn);
  }
  const auto compact = [](Conn& conn) {
    if (conn.rbuf_off > 0) {
      conn.rbuf.erase(0, conn.rbuf_off);
      conn.rbuf_off = 0;
    }
  };
  if (groups.size() <= 1) {
    // Zero or one tenant with input: plain FIFO drain, no scheduling
    // overhead — the single-ensemble hot path is untouched.
    for (auto& [id, group] : groups) {
      (void)id;
      for (Conn* conn : group.conns) {
        try {
          while (process_one_frame(*conn, nullptr)) {
          }
        } catch (const MqError&) {
          // Framing violation: the stream is unrecoverable — drop the
          // client, requeue what it held.
          dead.push_back(conn->fd);
        }
        compact(*conn);
      }
    }
    return;
  }
  // Deficit round robin across tenants, costed in wire bytes: each round
  // every tenant earns one quantum of credit and spends it on its own
  // frames (round-robin over its connections); a tenant whose burst
  // outruns its credit waits for the next round while the others drain.
  // One oversized frame may overdraw the credit (classic DRR) — the debt
  // carries into later rounds, so amortized fairness holds.
  const auto quantum =
      static_cast<std::int64_t>(std::max<std::size_t>(
          config_.fair_quantum_bytes, 1));
  std::vector<Conn*> violators;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [id, group] : groups) {
      (void)id;
      group.deficit += quantum;
      bool any = true;
      while (group.deficit > 0 && any) {
        any = false;
        for (std::size_t i = 0;
             i < group.conns.size() && group.deficit > 0; ++i) {
          Conn* conn = group.conns[group.next % group.conns.size()];
          ++group.next;
          if (std::find(violators.begin(), violators.end(), conn) !=
              violators.end()) {
            continue;
          }
          std::size_t cost = 0;
          bool processed = false;
          try {
            processed = process_one_frame(*conn, &cost);
          } catch (const MqError&) {
            dead.push_back(conn->fd);
            violators.push_back(conn);
            continue;
          }
          if (processed) {
            group.deficit -= static_cast<std::int64_t>(cost);
            any = true;
            progress = true;
          }
        }
      }
      // An idle tenant banks no credit: fairness bounds bursts, it does
      // not reward past silence.
      if (!any) group.deficit = 0;
    }
  }
  for (auto& [id, group] : groups) {
    (void)id;
    for (Conn* conn : group.conns) compact(*conn);
  }
}

void BrokerServer::handle_frame(Conn& conn, Frame&& req) {
  const auto started = Clock::now();
  // Namespace integrity: "t.<id>/" is the daemon's reserved qualification
  // prefix. A client-visible name that already parses as tenant-qualified
  // would address another tenant's physical queues directly — from the
  // default tenant it bypasses namespacing AND every quota (admit_publish
  // bounds only the connection's own tenant) — so it is rejected before
  // qualification, on every connection including the default tenant.
  if (!req.queue.empty() && !mq::tenant_of_queue(req.queue).empty()) {
    Frame resp;
    resp.op = Op::kError;
    resp.corr = req.corr;
    resp.body = "net: queue name '" + req.queue +
                "' is reserved (tenant-qualified names cannot be "
                "addressed directly)";
    respond(conn, std::move(resp));
    record_op_us(started);
    return;
  }
  // Transparent namespacing: a tenant-bound connection's queue names are
  // qualified into its namespace before they touch the broker, so two
  // ensembles both using "q.pending" land on disjoint physical queues.
  // The default tenant's prefix is empty — byte-identical legacy behavior.
  if (conn.tenant != nullptr && !req.queue.empty() &&
      !conn.tenant->queue_prefix().empty()) {
    req.queue = conn.tenant->queue_prefix() + req.queue;
  }
  Frame resp;
  resp.op = Op::kOk;
  resp.corr = req.corr;
  try {
    switch (req.op) {
      case Op::kDeclare: {
        // Idempotent across the wire: an existing queue satisfies any
        // re-declare (clients re-declare blindly after reconnecting, and
        // may disagree with the daemon about durability). Durability is
        // the daemon's decision — it is on whichever side owns a journal.
        if (!broker_->has_queue(req.queue)) {
          mq::QueueOptions options;
          options.durable = !broker_->journal_path().empty();
          broker_->declare_queue(req.queue, options);
        }
        break;
      }
      case Op::kHasQueue:
        if (broker_->has_queue(req.queue)) resp.flags |= kFlagTrue;
        break;
      case Op::kPublish: {
        if (!admit_publish(conn, req.corr, 1, req.body.size())) {
          record_op_us(started);
          return;  // admit_publish answered kErrQuota
        }
        std::size_t off = 0;
        mq::Message msg = decode_message_binary(req.body, off);
        resp.arg = broker_->publish(req.queue, std::move(msg));
        conn.tenant->count_published(1);
        break;
      }
      case Op::kPublishBatch: {
        std::size_t off = 0;
        const std::uint32_t count = get_u32(req.body, off);
        // Admission happens before any message decodes: a throttled batch
        // costs the server a header read, not a full deserialization.
        if (!admit_publish(conn, req.corr, count, req.body.size())) {
          record_op_us(started);
          return;
        }
        std::vector<mq::Message> msgs;
        msgs.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          msgs.push_back(decode_message_binary(req.body, off));
        }
        resp.arg = broker_->publish_batch(req.queue, std::move(msgs));
        conn.tenant->count_published(count);
        break;
      }
      case Op::kGet:
      case Op::kGetBatch: {
        std::size_t off = 0;
        const std::uint64_t timeout_us = get_u64(req.body, off);
        const bool batch = req.op == Op::kGetBatch;
        const std::size_t max_n =
            batch ? static_cast<std::size_t>(req.arg) : 1;
        if (try_answer_get(conn, req.corr, req.queue, max_n, batch)) {
          record_op_us(started);
          return;  // try_answer_get sent the response
        }
        if (timeout_us > 0) {
          ParkedGet parked;
          parked.fd = conn.fd;
          parked.corr = req.corr;
          parked.queue = req.queue;
          parked.max_n = max_n;
          parked.batch = batch;
          parked.deadline =
              Clock::now() + std::chrono::microseconds(timeout_us);
          parked_.push_back(std::move(parked));
          record_op_us(started);
          return;  // response deferred until satisfied or expired
        }
        resp.flags |= kFlagEmpty;
        break;
      }
      case Op::kAck: {
        if (broker_->ack(req.queue, req.arg)) resp.flags |= kFlagTrue;
        auto& unacked = conn.unacked;
        unacked.erase(std::remove(unacked.begin(), unacked.end(),
                                  std::make_pair(req.queue, req.arg)),
                      unacked.end());
        break;
      }
      case Op::kAckBatch: {
        std::size_t off = 0;
        const std::uint32_t count = get_u32(req.body, off);
        std::vector<std::uint64_t> tags;
        tags.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          tags.push_back(get_u64(req.body, off));
        }
        resp.arg = broker_->ack_batch(req.queue, tags);
        auto& unacked = conn.unacked;
        for (std::uint64_t tag : tags) {
          unacked.erase(std::remove(unacked.begin(), unacked.end(),
                                    std::make_pair(req.queue, tag)),
                        unacked.end());
        }
        break;
      }
      case Op::kNack: {
        const bool requeue = (req.flags & kFlagRequeue) != 0;
        if (broker_->nack(req.queue, req.arg, requeue)) {
          resp.flags |= kFlagTrue;
        }
        auto& unacked = conn.unacked;
        unacked.erase(std::remove(unacked.begin(), unacked.end(),
                                  std::make_pair(req.queue, req.arg)),
                      unacked.end());
        break;
      }
      case Op::kRequeue: {
        resp.arg = broker_->requeue_unacked(req.queue);
        // Those deliveries are back in the queue: no connection should
        // requeue them a second time on disconnect.
        forget_unacked(req.queue);
        break;
      }
      case Op::kDepth: {
        // Each tenant sees its own namespace, with client-visible (un-
        // qualified) names. The default tenant sees the unqualified queues
        // only — a tenant-less client on a shared daemon is not shown
        // other ensembles' backlogs.
        std::vector<mq::QueueDepth> depths;
        const std::string prefix =
            conn.tenant != nullptr ? conn.tenant->queue_prefix()
                                   : std::string();
        if (prefix.empty()) {
          for (mq::QueueDepth& d : broker_->depth_snapshot()) {
            if (mq::tenant_of_queue(d.queue).empty()) {
              depths.push_back(std::move(d));
            }
          }
        } else {
          depths = broker_->depth_snapshot(prefix);
          for (mq::QueueDepth& d : depths) {
            d.queue.erase(0, prefix.size());
          }
        }
        resp.op = Op::kDepthReport;
        put_u32(resp.body, static_cast<std::uint32_t>(depths.size()));
        for (const mq::QueueDepth& d : depths) {
          put_u16(resp.body, static_cast<std::uint16_t>(d.queue.size()));
          resp.body.append(d.queue);
          put_u64(resp.body, d.ready);
          put_u64(resp.body, d.unacked);
        }
        break;
      }
      case Op::kHeartbeat:
        resp.op = Op::kHeartbeat;
        resp.body = broker_->health();
        break;
      case Op::kHello: {
        // Tenant binding: the hello body names the tenant (empty = the
        // default, the same as sending no hello). Re-hello with the same
        // id is idempotent (reconnect paths re-send); naming a *different*
        // id is an error and leaves the binding unchanged.
        const std::string& tenant_id = req.body;
        if (conn.hello_seen && conn.tenant != nullptr &&
            tenant_id != conn.tenant->id()) {
          resp.op = Op::kError;
          resp.body = "net: connection already bound to tenant '" +
                      conn.tenant->id() + "'; cannot rebind to '" +
                      tenant_id + "'";
          break;
        }
        std::shared_ptr<mq::Tenant> tenant = tenants_->bind(tenant_id);
        if (tenant == nullptr) {
          // Invalid id, or unknown with auto-register off. Refuse AND
          // drop: serving this client as the default tenant would silently
          // put a misaddressed ensemble in the wrong namespace.
          resp.op = Op::kError;
          resp.body = "net: unknown or invalid tenant id '" + tenant_id +
                      "'";
          conn.closing = true;  // error frame flushes, then the drop
          break;
        }
        conn.tenant = std::move(tenant);
        conn.hello_seen = true;
        if (!conn.tenant->id().empty()) {
          ENTK_INFO("broker_server")
              << "connection fd=" << conn.fd << " bound to tenant '"
              << conn.tenant->id() << "'";
        }
        resp.op = Op::kHello;
        break;
      }
      case Op::kWorkerHello: {
        conn.worker_id = req.body;
        ENTK_INFO("broker_server")
            << "connection fd=" << conn.fd << " identified as worker '"
            << conn.worker_id << "'";
        break;
      }
      case Op::kClose: {
        for (const auto& [queue, tag] : conn.unacked) {
          broker_->nack(queue, tag, /*requeue=*/true);
        }
        conn.unacked.clear();
        conn.closing = true;
        break;
      }
      default:
        resp.op = Op::kError;
        resp.body = "net: unknown op " +
                    std::to_string(static_cast<int>(req.op));
        break;
    }
  } catch (const MqError& e) {
    resp = Frame{};
    resp.op = Op::kError;
    resp.corr = req.corr;
    resp.body = e.what();
  }
  respond(conn, std::move(resp));
  record_op_us(started);
}

bool BrokerServer::admit_publish(Conn& conn, std::uint64_t corr,
                                 std::size_t n, std::size_t incoming_bytes) {
  mq::Tenant* tenant = conn.tenant.get();
  if (tenant == nullptr) return true;
  const mq::TenantQuota& quota = tenant->quota();
  std::string reason;
  double retry_after_s = 0.0;
  // Backlog quotas first (exact, via the prefix-filtered snapshot), THEN
  // the rate bucket — a backlog-blocked publish must not burn rate tokens
  // it never used.
  if (quota.max_queue_depth > 0 || quota.max_bytes > 0) {
    std::size_t depth = 0, bytes = 0;
    for (const mq::QueueDepth& d :
         broker_->depth_snapshot(tenant->queue_prefix())) {
      depth += d.ready + d.unacked;
      bytes += d.bytes;
    }
    tenant->observe_backlog(depth, bytes);
    if (quota.max_queue_depth > 0 && depth + n > quota.max_queue_depth) {
      reason = "tenant '" + tenant->id() + "' backlog depth quota (" +
               std::to_string(quota.max_queue_depth) + ") exceeded";
      // No analytic hint: backlog drains at the consumers' pace. A short
      // fixed hint keeps the client's retry cadence snappy.
      retry_after_s = 0.02;
    } else if (quota.max_bytes > 0 &&
               bytes + std::min(incoming_bytes, quota.max_bytes) >
                   quota.max_bytes) {
      // The incoming frame body (known before any decode) is folded into
      // the check so a tenant sitting just under the limit cannot overshoot
      // by one arbitrarily large batch. Clamped to the quota itself:
      // mirroring the token bucket's debt, a single publish larger than the
      // whole byte quota is admitted only against an empty backlog —
      // otherwise it could never be admitted at all.
      reason = "tenant '" + tenant->id() + "' backlog byte quota (" +
               std::to_string(quota.max_bytes) + ") exceeded";
      retry_after_s = 0.02;
    }
  }
  if (reason.empty() && !tenant->try_acquire_rate(n, &retry_after_s)) {
    reason = "tenant '" + tenant->id() + "' publish rate quota (" +
             std::to_string(quota.publish_rate) + "/s) exceeded";
  }
  if (reason.empty()) return true;
  tenant->count_throttled();
  quota_rejections_.fetch_add(1, std::memory_order_relaxed);
  if (quota_rejections_metric_ != nullptr) quota_rejections_metric_->add();
  Frame resp;
  resp.op = Op::kErrQuota;
  resp.corr = corr;
  resp.arg = static_cast<std::uint64_t>(
      std::max(retry_after_s, 0.0) * 1e6);  // retry-after hint, µs
  resp.body = std::move(reason);
  respond(conn, std::move(resp));
  return false;
}

bool BrokerServer::try_answer_get(Conn& conn, std::uint64_t corr,
                                  const std::string& queue, std::size_t max_n,
                                  bool batch) {
  Frame resp;
  resp.corr = corr;
  if (batch) {
    std::vector<mq::Delivery> deliveries =
        broker_->get_batch(queue, max_n, 0.0);
    if (deliveries.empty()) return false;
    resp.op = Op::kDeliveryBatch;
    put_u32(resp.body, static_cast<std::uint32_t>(deliveries.size()));
    for (const mq::Delivery& d : deliveries) {
      put_u64(resp.body, d.delivery_tag);
      append_message_binary(resp.body, d.message);
      conn.unacked.emplace_back(queue, d.delivery_tag);
    }
  } else {
    std::optional<mq::Delivery> delivery = broker_->get(queue, 0.0);
    if (!delivery.has_value()) return false;
    resp.op = Op::kDelivery;
    resp.arg = delivery->delivery_tag;
    append_message_binary(resp.body, delivery->message);
    conn.unacked.emplace_back(queue, delivery->delivery_tag);
  }
  respond(conn, std::move(resp));
  return true;
}

void BrokerServer::respond(Conn& conn, Frame&& resp) {
  // Header and body stay separate buffers: the body (often a multi-message
  // delivery batch) is moved into the write queue, never copied into a
  // contiguous frame; flush_writes gathers both into one sendmsg.
  std::string header;
  append_frame_header(header, resp, resp.body.size());
  conn.wq_bytes += header.size() + resp.body.size();
  conn.wq.push_back(std::move(header));
  if (!resp.body.empty()) conn.wq.push_back(std::move(resp.body));
  if (frames_out_ != nullptr) frames_out_->add();
}

bool BrokerServer::flush_writes(Conn& conn) {
  while (conn.wq_bytes > 0) {
    // Gather the queued buffers into one scatter-gather write: a whole
    // response burst (e.g. 64 parked gets answered in one pass) leaves in
    // a single syscall.
    iovec iov[kMaxWriteIov];
    std::size_t niov = 0;
    std::size_t skip = conn.wq_front_off;
    for (const std::string& buf : conn.wq) {
      if (niov == kMaxWriteIov) break;
      iov[niov].iov_base = const_cast<char*>(buf.data()) + skip;
      iov[niov].iov_len = buf.size() - skip;
      ++niov;
      skip = 0;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(conn.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      if (bytes_out_ != nullptr) bytes_out_->add(static_cast<std::uint64_t>(n));
      std::size_t sent = static_cast<std::size_t>(n);
      conn.wq_bytes -= sent;
      while (sent > 0) {
        std::string& front = conn.wq.front();
        const std::size_t avail = front.size() - conn.wq_front_off;
        if (sent >= avail) {
          sent -= avail;
          conn.wq.pop_front();
          conn.wq_front_off = 0;
        } else {
          conn.wq_front_off += sent;
          sent = 0;
        }
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // POLLOUT later
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

void BrokerServer::service_parked() {
  if (parked_.empty()) return;
  const auto now = Clock::now();
  std::vector<ParkedGet> still_parked;
  still_parked.reserve(parked_.size());
  for (ParkedGet& p : parked_) {
    auto it = conns_.find(p.fd);
    if (it == conns_.end()) continue;  // client gone; nothing to answer
    Conn& conn = it->second;
    bool answered = false;
    try {
      answered = try_answer_get(conn, p.corr, p.queue, p.max_n, p.batch);
    } catch (const MqError& e) {
      Frame resp;
      resp.op = Op::kError;
      resp.corr = p.corr;
      resp.body = e.what();
      respond(conn, std::move(resp));
      answered = true;
    }
    if (answered) continue;
    if (now >= p.deadline) {
      Frame resp;
      resp.op = Op::kOk;
      resp.corr = p.corr;
      resp.flags = kFlagEmpty;
      respond(conn, std::move(resp));
      continue;
    }
    still_parked.push_back(std::move(p));
  }
  parked_.swap(still_parked);
}

void BrokerServer::expire_workers() {
  if (config_.worker_ttl_s <= 0) return;
  const auto now = Clock::now();
  const auto ttl = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.worker_ttl_s));
  std::vector<int> expired;
  for (const auto& [fd, conn] : conns_) {
    if (conn.worker_id.empty()) continue;
    if (now - conn.last_activity > ttl) expired.push_back(fd);
  }
  for (int fd : expired) {
    ENTK_WARN("broker_server")
        << "worker '" << conns_[fd].worker_id << "' silent for more than "
        << config_.worker_ttl_s << "s: dropping its connection";
    drop_conn(fd, /*requeue_unacked=*/true);
  }
}

void BrokerServer::drop_conn(int fd, bool requeue_unacked) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (requeue_unacked && !it->second.unacked.empty()) {
    // Per-queue tally for the warn log: requeue-on-disconnect is the
    // at-least-once recovery path firing, which an operator wants to see.
    std::map<std::string, std::size_t> per_queue;
    std::uint64_t requeued = 0;
    for (const auto& [queue, tag] : it->second.unacked) {
      try {
        broker_->nack(queue, tag, /*requeue=*/true);
        ++requeued;
        ++per_queue[queue];
        if (requeued_on_disconnect_ != nullptr) requeued_on_disconnect_->add();
      } catch (const MqError&) {
        // Queue deleted since delivery: nothing left to requeue into.
      }
    }
    if (requeued > 0) {
      requeued_total_.fetch_add(requeued, std::memory_order_relaxed);
      std::string detail;
      for (const auto& [queue, count] : per_queue) {
        if (!detail.empty()) detail += ", ";
        detail += queue + "=" + std::to_string(count);
      }
      ENTK_WARN("broker_server")
          << "requeued " << requeued << " unacked delivery(ies) from "
          << (it->second.worker_id.empty()
                  ? std::string("client fd=") + std::to_string(fd)
                  : "worker '" + it->second.worker_id + "'")
          << " on disconnect: " << detail;
    }
  }
  close_fd(fd);
  conns_.erase(it);
  parked_.erase(std::remove_if(parked_.begin(), parked_.end(),
                               [fd](const ParkedGet& p) { return p.fd == fd; }),
                parked_.end());
  conn_count_.store(conns_.size(), std::memory_order_relaxed);
  if (connections_ != nullptr) {
    connections_->set(static_cast<std::int64_t>(conns_.size()));
  }
}

void BrokerServer::forget_unacked(const std::string& queue) {
  for (auto& [fd, conn] : conns_) {
    auto& unacked = conn.unacked;
    unacked.erase(
        std::remove_if(unacked.begin(), unacked.end(),
                       [&queue](const std::pair<std::string, std::uint64_t>& e) {
                         return e.first == queue;
                       }),
        unacked.end());
  }
}

void BrokerServer::drain_connections() {
  // Answer every parked long-poll empty so no client blocks on a response
  // that will never come, then flush write buffers within the drain budget.
  for (const ParkedGet& p : parked_) {
    auto it = conns_.find(p.fd);
    if (it == conns_.end()) continue;
    Frame resp;
    resp.op = Op::kOk;
    resp.corr = p.corr;
    resp.flags = kFlagEmpty;
    respond(it->second, std::move(resp));
  }
  parked_.clear();

  const auto deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(config_.drain_timeout_s));
  while (Clock::now() < deadline) {
    bool pending = false;
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (conn.wq_bytes == 0) continue;
      if (!flush_writes(conn)) {
        dead.push_back(fd);
      } else if (conn.wq_bytes > 0) {
        pending = true;
      }
    }
    for (int fd : dead) drop_conn(fd, /*requeue_unacked=*/true);
    if (!pending) break;
    pollfd pfd{-1, POLLOUT, 0};
    std::vector<pollfd> pfds;
    for (auto& [fd, conn] : conns_) {
      if (conn.wq_bytes > 0) {
        pfd.fd = fd;
        pfds.push_back(pfd);
      }
    }
    ::poll(pfds.data(), pfds.size(), 10);
  }

  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) drop_conn(fd, /*requeue_unacked=*/true);
}

void BrokerServer::record_op_us(Clock::time_point started) {
  if (op_us_ != nullptr) op_us_->observe(us_between(started, Clock::now()));
}

}  // namespace entk::net
