// In-process message broker standing in for the RabbitMQ server.
//
// The paper (§II-C) relies on three properties of a server-based broker:
//   (1) producers and consumers need not be topology-aware — they only talk
//       to the broker by queue name;
//   (2) messages survive component failures — durable queues journal every
//       publish/ack to disk and a new broker can recover the backlog;
//   (3) production and consumption are decoupled — the broker buffers.
// This class provides all three inside one process: queues are owned by the
// broker, looked up by name, and optionally journaled as JSONL records.
//
// Scalability: the broker is sharded by queue name. Each shard owns an
// independent slice of the queue map (its own writer lock and copy-on-write
// read snapshot) and, when journaling is on, its own group-commit
// JournalWriter — so publishers and consumers of queues in different shards
// share NO locks and no flusher, and the dispatch hot path scales with
// cores instead of serializing on one global mutex. The hot-path queue
// lookup is lock-free: it loads the shard's immutable map snapshot with one
// atomic shared_ptr load; only topology changes (declare/delete/close) take
// the shard's mutex and publish a new snapshot. A broker constructed with
// shards=1 is behaviorally identical to the historical single-mutex broker
// (one queue map, one journal file, same journal path).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/mq/broker_handle.hpp"
#include "src/mq/journal.hpp"
#include "src/mq/queue.hpp"
#include "src/obs/metrics.hpp"

namespace entk::mq {

struct BrokerStats {
  std::size_t queues = 0;
  std::size_t published = 0;
  std::size_t delivered = 0;
  std::size_t acked = 0;
};

class Broker : public BrokerHandle {
 public:
  /// `journal_dir`: when non-empty, durable queues append their operations
  /// to per-shard journals under it (see journal_path). `journal` tunes the
  /// group-commit flush policy (see JournalConfig). `shards`: number of
  /// independent queue shards; 1 (the default) reproduces the unsharded
  /// broker exactly, 0 derives a count from hardware_concurrency.
  explicit Broker(std::string name = "broker", std::string journal_dir = "",
                  JournalConfig journal = {}, std::size_t shards = 1);
  ~Broker() override;

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  const std::string& name() const { return name_; }

  /// Hardware-derived shard count (what `shards = 0` resolves to):
  /// hardware_concurrency clamped to [1, 16].
  static std::size_t default_shards();

  std::size_t shard_count() const { return shards_.size(); }

  /// Index of the shard owning `queue` (stable hash of the queue name).
  std::size_t shard_of(const std::string& queue) const;

  /// Attach a metrics registry: publish/get/ack latency histograms, message
  /// counters and requeue counts ("mq.*"). With shards > 1, per-shard
  /// publish counters ("mq.shard<K>.published") expose shard balance.
  /// Handles are resolved once here, so the per-operation cost is a null
  /// check plus a few relaxed atomics. Not thread-safe against in-flight
  /// operations — attach before the run starts. nullptr detaches.
  void set_metrics(obs::MetricsPtr metrics);

  /// Idempotent declare; re-declaring with different options is an error.
  std::shared_ptr<Queue> declare_queue(const std::string& queue,
                                       QueueOptions options = {}) override;

  /// Lookup; throws MqError when the queue does not exist.
  std::shared_ptr<Queue> queue(const std::string& queue) const;
  bool has_queue(const std::string& queue) const override;
  std::vector<std::string> queue_names() const;

  /// Publish to a declared queue. Assigns the broker sequence number and,
  /// for durable queues, journals the message before it becomes visible.
  /// Returns the assigned sequence number; throws MqError on unknown queue.
  std::uint64_t publish(const std::string& queue, Message msg) override;

  /// Publish a batch to one queue: a contiguous sequence-number range is
  /// reserved in one step, durable messages are journaled with a single
  /// flush, and the queue lock is taken once. Returns the first assigned
  /// sequence number (messages get first..first+n-1 in order); throws
  /// MqError on unknown queue or when the queue closes mid-batch.
  std::uint64_t publish_batch(const std::string& queue,
                              std::vector<Message> msgs) override;

  /// Consume one message (see Queue::get).
  std::optional<Delivery> get(const std::string& queue,
                              double timeout_s) override;

  /// Consume up to `max_n` messages in one queue-lock acquisition (see
  /// Queue::get_batch); the batch may be partial or empty on timeout.
  std::vector<Delivery> get_batch(const std::string& queue, std::size_t max_n,
                                  double timeout_s) override;

  /// Ack/nack a delivery obtained from `queue`.
  bool ack(const std::string& queue, std::uint64_t delivery_tag) override;
  bool nack(const std::string& queue, std::uint64_t delivery_tag,
            bool requeue) override;

  /// Ack a batch of deliveries with one queue-lock acquisition and (for
  /// durable queues) one journal flush. Stale tags are skipped. Returns the
  /// number of deliveries actually acked.
  std::size_t ack_batch(
      const std::string& queue,
      const std::vector<std::uint64_t>& delivery_tags) override;

  /// Requeue every unacked delivery of `queue` (component-restart path:
  /// messages orphaned by dead workers go back for the next generation).
  /// Returns the number requeued; counted into "mq.requeued".
  std::size_t requeue_unacked(const std::string& queue) override;

  /// Delete a queue (closing it first).
  void delete_queue(const std::string& queue);

  /// Close all queues and stop accepting publishes.
  void close() override;
  bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }

  /// "" when durable; the sticky journal-flusher error otherwise (first
  /// failing shard wins). Probed by the Supervisor heartbeat so a broker
  /// that can no longer persist (full/failing disk) aborts the run instead
  /// of silently dropping durability until close().
  std::string health() const override;

  BrokerStats stats() const;

  /// Per-queue ready/unacked backlog snapshot (profiler depth gauges),
  /// sorted by queue name — identical at every shard count.
  std::vector<QueueDepth> depth_snapshot() const override;

  /// Prefix-filtered backlog snapshot: only queues whose name starts with
  /// `prefix`, sorted by name. Each shard map is ordered, so this walks
  /// just the matching range per shard (lower_bound) instead of scanning
  /// every queue — per-tenant depth gauges on a daemon hosting many
  /// tenants stay O(queues-of-that-tenant). An empty prefix matches all.
  std::vector<QueueDepth> depth_snapshot(const std::string& prefix) const;

  /// Rebuild broker state from the journal set written by a previous
  /// (durable) broker with the same name: `journal_path` names the shard-0
  /// file; sibling shard files ("<path>.1", "<path>.2", ...) are replayed
  /// too when present, so recovery works across restarts that changed the
  /// shard count. The replay is also layout-aware for tenant partitions:
  /// any subdirectory of dirname(journal_path) holding a file with the
  /// same basename is a per-tenant partition ("<dir>/<tenant>/<name>.
  /// journal[.K]") and is replayed into the same two-phase pass — queue
  /// names inside are already tenant-qualified, so isolation survives the
  /// restart. Every published-but-unacked message is restored to its
  /// queue, preserving per-queue seq order. Queues are re-declared as
  /// durable. Returns the number of restored messages.
  std::size_t recover(const std::string& journal_path);

  /// Path of the journal shard `shard` writes ("" when journaling is off).
  /// Shard 0 keeps the historical "<dir>/<name>.journal" path; shard K > 0
  /// appends ".K" — so a shards=1 broker writes exactly the old file.
  std::string journal_path(std::size_t shard) const;
  std::string journal_path() const { return journal_path(0); }

  /// The group-commit journal writer of one shard (nullptr when journaling
  /// is off). Exposed for tests and for callers that need an explicit
  /// durability barrier (JournalWriter::flush) or crash injection.
  JournalWriter* journal_writer(std::size_t shard = 0);

  /// Path of the journal shard `shard` of tenant partition `tenant` writes
  /// ("<dir>/<tenant>/<name>.journal[.K]"; "" when journaling is off).
  /// Journals of tenant-qualified durable queues land here instead of the
  /// default files, so one tenant's churn never rewrites another's
  /// partition and an operator can archive/drop a tenant by directory.
  std::string partition_journal_path(const std::string& tenant,
                                     std::size_t shard = 0) const;

 private:
  using QueueMap = std::map<std::string, std::shared_ptr<Queue>>;

  /// One slice of the queue namespace: an independent lock + copy-on-write
  /// snapshot of this shard's queues, and (durable brokers) a dedicated
  /// group-commit journal so shards never serialize on one flusher.
  struct Shard {
    mutable std::shared_mutex mutex;  // writers: declare/delete/close
    std::atomic<std::shared_ptr<const QueueMap>> snapshot;  // lock-free reads
    std::unique_ptr<JournalWriter> journal;
    obs::Counter* published = nullptr;  // per-shard balance counter
  };

  /// One tenant's journal partition: a per-shard writer set rooted at
  /// "<dir>/<tenant>/". Owned via shared_ptr inside a copy-on-write map so
  /// the publish hot path resolves its writer with one atomic load.
  struct Partition {
    std::vector<std::unique_ptr<JournalWriter>> writers;  // one per shard
  };
  using PartitionMap = std::map<std::string, std::shared_ptr<Partition>>;

  /// Lock-free hot-path lookup: one atomic snapshot load + map find.
  std::shared_ptr<Queue> find_queue(const std::string& queue,
                                    std::size_t shard) const;
  std::shared_ptr<Queue> queue_or_throw(const std::string& queue,
                                        std::size_t shard) const;
  /// Journal writer for `queue` on `shard`: the shard's default writer for
  /// unqualified names, the tenant partition's writer otherwise (nullptr
  /// when journaling is off or the partition was never created).
  JournalWriter* journal_writer_for(std::size_t shard,
                                    const std::string& queue) const;
  /// Create (idempotently) the journal partition of `tenant`, including
  /// its directory. No-op when journaling is off.
  void ensure_partition(const std::string& tenant);
  static void journal_append(JournalWriter* writer, const json::Value& record);
  static void journal_append_batch(JournalWriter* writer,
                                   const std::vector<json::Value>& records);

  const std::string name_;
  const std::string journal_dir_;
  const JournalConfig journal_config_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Tenant journal partitions: copy-on-write like the queue maps (creates
  // are rare — once per tenant — and writer lookup sits on the publish hot
  // path). Guarded by partitions_mutex_ for writers only.
  std::mutex partitions_mutex_;
  std::atomic<std::shared_ptr<const PartitionMap>> partitions_;

  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<bool> closed_{false};

  // Pre-resolved metric handles; all null when metrics are off.
  obs::MetricsPtr metrics_;
  obs::Histogram* journal_batch_size_ = nullptr;  // shared by all writers
  struct {
    obs::Counter* published = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* acked = nullptr;
    obs::Counter* requeued = nullptr;
    obs::Counter* get_empty = nullptr;
    obs::Counter* serialize_avoided = nullptr;
    obs::Histogram* publish_us = nullptr;
    obs::Histogram* get_us = nullptr;
    obs::Histogram* ack_us = nullptr;
  } m_;
};

using BrokerPtr = std::shared_ptr<Broker>;

}  // namespace entk::mq
