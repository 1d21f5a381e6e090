#include "src/mq/broker.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "src/common/clock.hpp"
#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/mq/tenant.hpp"

namespace entk::mq {

std::size_t Broker::default_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 16);
}

Broker::Broker(std::string name, std::string journal_dir,
               JournalConfig journal, std::size_t shards)
    : name_(std::move(name)),
      journal_dir_(std::move(journal_dir)),
      journal_config_(journal) {
  if (shards == 0) shards = default_shards();
  shards_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->snapshot.store(std::make_shared<const QueueMap>(),
                          std::memory_order_release);
    if (!journal_dir_.empty()) {
      // Eager so an unwritable journal dir fails construction, not the
      // first durable publish.
      shard->journal =
          std::make_unique<JournalWriter>(journal_path(k), journal_config_);
    }
    shards_.push_back(std::move(shard));
  }
  partitions_.store(std::make_shared<const PartitionMap>(),
                    std::memory_order_release);
}

Broker::~Broker() {
  try {
    close();
  } catch (const MqError&) {
    // A sticky journal I/O error surfaces on explicit close()/append calls;
    // the destructor must stay noexcept.
  }
}

std::size_t Broker::shard_of(const std::string& queue) const {
  if (shards_.size() == 1) return 0;
  return std::hash<std::string>{}(queue) % shards_.size();
}

void Broker::set_metrics(obs::MetricsPtr metrics) {
  metrics_ = std::move(metrics);
  if (!metrics_) {
    m_ = {};
    journal_batch_size_ = nullptr;
    for (auto& shard : shards_) {
      shard->published = nullptr;
      if (shard->journal != nullptr) {
        shard->journal->set_batch_size_metric(nullptr);
      }
    }
    const std::shared_ptr<const PartitionMap> parts =
        partitions_.load(std::memory_order_acquire);
    for (const auto& [tenant, part] : *parts) {
      (void)tenant;
      for (auto& writer : part->writers) {
        writer->set_batch_size_metric(nullptr);
      }
    }
    return;
  }
  m_.published = &metrics_->counter("mq.published");
  m_.delivered = &metrics_->counter("mq.delivered");
  m_.acked = &metrics_->counter("mq.acked");
  m_.requeued = &metrics_->counter("mq.requeued");
  m_.get_empty = &metrics_->counter("mq.get_empty");
  m_.serialize_avoided = &metrics_->counter("mq.serialize_avoided");
  m_.publish_us = &metrics_->histogram("mq.publish_us");
  m_.get_us = &metrics_->histogram("mq.get_us");
  m_.ack_us = &metrics_->histogram("mq.ack_us");
  // Record-count bounds, not latency: each observation is the number of
  // journal records one group-commit flush wrote. The histogram is
  // thread-safe, so every shard journal shares it.
  obs::Histogram* batch_size =
      journal_dir_.empty()
          ? nullptr
          : &metrics_->histogram("mq.journal_batch_size",
                                 {1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                  1024});
  journal_batch_size_ = batch_size;  // applied to future tenant partitions
  {
    const std::shared_ptr<const PartitionMap> parts =
        partitions_.load(std::memory_order_acquire);
    for (const auto& [tenant, part] : *parts) {
      (void)tenant;
      for (auto& writer : part->writers) {
        writer->set_batch_size_metric(batch_size);
      }
    }
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (shards_[k]->journal != nullptr) {
      shards_[k]->journal->set_batch_size_metric(batch_size);
    }
    // Per-shard balance counters only make sense (and only appear) when
    // sharding is actually on, keeping the shards=1 metric surface
    // identical to the historical broker.
    shards_[k]->published =
        shards_.size() > 1
            ? &metrics_->counter("mq.shard" + std::to_string(k) +
                                 ".published")
            : nullptr;
  }
}

std::string Broker::journal_path(std::size_t shard) const {
  if (journal_dir_.empty()) return "";
  std::string path = journal_dir_ + "/" + name_ + ".journal";
  if (shard > 0) path += "." + std::to_string(shard);
  return path;
}

JournalWriter* Broker::journal_writer(std::size_t shard) {
  return shard < shards_.size() ? shards_[shard]->journal.get() : nullptr;
}

std::string Broker::partition_journal_path(const std::string& tenant,
                                           std::size_t shard) const {
  if (journal_dir_.empty() || tenant.empty()) return "";
  std::string path = journal_dir_ + "/" + tenant + "/" + name_ + ".journal";
  if (shard > 0) path += "." + std::to_string(shard);
  return path;
}

JournalWriter* Broker::journal_writer_for(std::size_t shard,
                                          const std::string& queue) const {
  const std::string tenant = tenant_of_queue(queue);
  if (tenant.empty()) return shards_[shard]->journal.get();
  const std::shared_ptr<const PartitionMap> parts =
      partitions_.load(std::memory_order_acquire);
  const auto it = parts->find(tenant);
  return it != parts->end() ? it->second->writers[shard].get() : nullptr;
}

void Broker::ensure_partition(const std::string& tenant) {
  if (journal_dir_.empty() || tenant.empty()) return;
  {
    const std::shared_ptr<const PartitionMap> parts =
        partitions_.load(std::memory_order_acquire);
    if (parts->count(tenant) > 0) return;
  }
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  const std::shared_ptr<const PartitionMap> parts =
      partitions_.load(std::memory_order_acquire);
  if (parts->count(tenant) > 0) return;  // lost the race: already created
  const std::string dir = journal_dir_ + "/" + tenant;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw MqError("broker: cannot create journal partition " + dir + ": " +
                  ec.message());
  }
  auto part = std::make_shared<Partition>();
  part->writers.reserve(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    auto writer = std::make_unique<JournalWriter>(
        partition_journal_path(tenant, k), journal_config_);
    writer->set_batch_size_metric(journal_batch_size_);
    part->writers.push_back(std::move(writer));
  }
  auto next = std::make_shared<PartitionMap>(*parts);
  next->emplace(tenant, std::move(part));
  partitions_.store(std::shared_ptr<const PartitionMap>(std::move(next)),
                    std::memory_order_release);
}

std::shared_ptr<Queue> Broker::find_queue(const std::string& queue,
                                          std::size_t shard) const {
  const std::shared_ptr<const QueueMap> map =
      shards_[shard]->snapshot.load(std::memory_order_acquire);
  const auto it = map->find(queue);
  return it != map->end() ? it->second : nullptr;
}

std::shared_ptr<Queue> Broker::queue_or_throw(const std::string& queue,
                                              std::size_t shard) const {
  std::shared_ptr<Queue> q = find_queue(queue, shard);
  if (q == nullptr) throw MqError("broker: no such queue '" + queue + "'");
  return q;
}

std::shared_ptr<Queue> Broker::declare_queue(const std::string& queue,
                                             QueueOptions options) {
  // A durable tenant-qualified queue journals into its tenant's partition;
  // create it before the queue becomes visible so the first publish finds
  // its writer. Outside the shard lock: partition creation does I/O.
  if (options.durable) ensure_partition(tenant_of_queue(queue));
  Shard& shard = *shards_[shard_of(queue)];
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (closed()) throw MqError("broker: closed");
  const std::shared_ptr<const QueueMap> map =
      shard.snapshot.load(std::memory_order_acquire);
  const auto it = map->find(queue);
  if (it != map->end()) {
    const QueueOptions& existing = it->second->options();
    if (existing.durable != options.durable ||
        existing.capacity != options.capacity) {
      throw MqError("broker: queue '" + queue +
                    "' re-declared with different options");
    }
    return it->second;
  }
  auto q = std::make_shared<Queue>(queue, options);
  // Copy-on-write: readers keep the old snapshot; the new map becomes
  // visible with one atomic store. Declares are rare, lookups are hot.
  auto next = std::make_shared<QueueMap>(*map);
  next->emplace(queue, q);
  shard.snapshot.store(std::shared_ptr<const QueueMap>(std::move(next)),
                       std::memory_order_release);
  return q;
}

std::shared_ptr<Queue> Broker::queue(const std::string& queue) const {
  return queue_or_throw(queue, shard_of(queue));
}

bool Broker::has_queue(const std::string& queue) const {
  return find_queue(queue, shard_of(queue)) != nullptr;
}

std::vector<std::string> Broker::queue_names() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    const std::shared_ptr<const QueueMap> map =
        shard->snapshot.load(std::memory_order_acquire);
    for (const auto& [name, q] : *map) {
      (void)q;
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Broker::publish(const std::string& queue_name, Message msg) {
  if (closed()) throw MqError("broker: closed");
  const std::int64_t t0 = m_.publish_us != nullptr ? wall_now_us() : 0;
  const std::size_t shard = shard_of(queue_name);
  std::shared_ptr<Queue> q = queue_or_throw(queue_name, shard);
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed);
  msg.seq = seq;
  msg.routing_key = queue_name;
  if (q->options().durable) {
    JournalWriter* writer = journal_writer_for(shard, queue_name);
    if (writer != nullptr) {
      json::Value rec;
      rec["op"] = "pub";
      rec["q"] = queue_name;
      rec["seq"] = seq;
      rec["headers"] = msg.headers;
      rec["body"] = msg.body();
      journal_append(writer, rec);
    }
  }
  if (!q->publish(std::move(msg)))
    throw MqError("broker: queue '" + queue_name + "' closed");
  if (shards_[shard]->published != nullptr) shards_[shard]->published->add(1);
  if (m_.publish_us != nullptr) {
    m_.published->add(1);
    m_.publish_us->observe(static_cast<double>(wall_now_us() - t0));
  }
  return seq;
}

std::uint64_t Broker::publish_batch(const std::string& queue_name,
                                    std::vector<Message> msgs) {
  if (msgs.empty()) return 0;
  if (closed()) throw MqError("broker: closed");
  const std::int64_t t0 = m_.publish_us != nullptr ? wall_now_us() : 0;
  const std::size_t shard = shard_of(queue_name);
  std::shared_ptr<Queue> q = queue_or_throw(queue_name, shard);
  // Reserve a contiguous sequence range so recovery order matches publish
  // order even when other publishers interleave.
  const std::uint64_t first =
      next_seq_.fetch_add(msgs.size(), std::memory_order_relaxed);
  std::uint64_t seq = first;
  for (Message& msg : msgs) {
    msg.seq = seq++;
    msg.routing_key = queue_name;
  }
  if (q->options().durable) {
    JournalWriter* writer = journal_writer_for(shard, queue_name);
    if (writer != nullptr) {
      std::vector<json::Value> records;
      records.reserve(msgs.size());
      for (const Message& msg : msgs) {
        json::Value rec;
        rec["op"] = "pub";
        rec["q"] = queue_name;
        rec["seq"] = msg.seq;
        rec["headers"] = msg.headers;
        rec["body"] = msg.body();
        records.push_back(std::move(rec));
      }
      journal_append_batch(writer, records);
    }
  }
  const std::size_t n = msgs.size();
  if (q->publish_batch(std::move(msgs)) < n)
    throw MqError("broker: queue '" + queue_name + "' closed");
  if (shards_[shard]->published != nullptr) shards_[shard]->published->add(n);
  if (m_.publish_us != nullptr) {
    m_.published->add(n);
    m_.publish_us->observe(static_cast<double>(wall_now_us() - t0));
  }
  return first;
}

std::optional<Delivery> Broker::get(const std::string& queue_name,
                                    double timeout_s) {
  const std::size_t shard = shard_of(queue_name);
  if (m_.get_us == nullptr) {
    return queue_or_throw(queue_name, shard)->get(timeout_s);
  }
  const std::int64_t t0 = wall_now_us();
  std::optional<Delivery> d = queue_or_throw(queue_name, shard)->get(timeout_s);
  if (d) {
    // Only successful gets feed the latency histogram; empty polls would
    // just measure the timeout.
    m_.delivered->add(1);
    // A structured payload delivered without rendered bytes crossed every
    // hop by refcount bump: the dump+parse pair the seed paid was avoided.
    if (d->message.has_payload() && !d->message.has_rendered_body()) {
      m_.serialize_avoided->add(1);
    }
    m_.get_us->observe(static_cast<double>(wall_now_us() - t0));
  } else {
    m_.get_empty->add(1);
  }
  return d;
}

std::vector<Delivery> Broker::get_batch(const std::string& queue_name,
                                        std::size_t max_n, double timeout_s) {
  const std::size_t shard = shard_of(queue_name);
  if (m_.get_us == nullptr) {
    return queue_or_throw(queue_name, shard)->get_batch(max_n, timeout_s);
  }
  const std::int64_t t0 = wall_now_us();
  std::vector<Delivery> out =
      queue_or_throw(queue_name, shard)->get_batch(max_n, timeout_s);
  if (!out.empty()) {
    m_.delivered->add(out.size());
    std::size_t avoided = 0;
    for (const Delivery& d : out) {
      if (d.message.has_payload() && !d.message.has_rendered_body())
        ++avoided;
    }
    if (avoided > 0) m_.serialize_avoided->add(avoided);
    m_.get_us->observe(static_cast<double>(wall_now_us() - t0));
  } else {
    m_.get_empty->add(1);
  }
  return out;
}

bool Broker::ack(const std::string& queue_name, std::uint64_t delivery_tag) {
  const std::int64_t t0 = m_.ack_us != nullptr ? wall_now_us() : 0;
  const std::size_t shard = shard_of(queue_name);
  auto q = queue_or_throw(queue_name, shard);
  const auto seq = q->ack(delivery_tag);
  if (!seq) return false;
  if (q->options().durable) {
    JournalWriter* writer = journal_writer_for(shard, queue_name);
    if (writer != nullptr) {
      json::Value rec;
      rec["op"] = "ack";
      rec["q"] = queue_name;
      rec["seq"] = *seq;
      journal_append(writer, rec);
    }
  }
  if (m_.ack_us != nullptr) {
    m_.acked->add(1);
    m_.ack_us->observe(static_cast<double>(wall_now_us() - t0));
  }
  return true;
}

std::size_t Broker::ack_batch(const std::string& queue_name,
                              const std::vector<std::uint64_t>& delivery_tags) {
  if (delivery_tags.empty()) return 0;
  const std::int64_t t0 = m_.ack_us != nullptr ? wall_now_us() : 0;
  const std::size_t shard = shard_of(queue_name);
  auto q = queue_or_throw(queue_name, shard);
  const std::vector<std::uint64_t> seqs = q->ack_batch(delivery_tags);
  if (!seqs.empty() && q->options().durable) {
    JournalWriter* writer = journal_writer_for(shard, queue_name);
    if (writer != nullptr) {
      std::vector<json::Value> records;
      records.reserve(seqs.size());
      for (const std::uint64_t seq : seqs) {
        json::Value rec;
        rec["op"] = "ack";
        rec["q"] = queue_name;
        rec["seq"] = seq;
        records.push_back(std::move(rec));
      }
      journal_append_batch(writer, records);
    }
  }
  if (m_.ack_us != nullptr && !seqs.empty()) {
    m_.acked->add(seqs.size());
    m_.ack_us->observe(static_cast<double>(wall_now_us() - t0));
  }
  return seqs.size();
}

bool Broker::nack(const std::string& queue_name, std::uint64_t delivery_tag,
                  bool requeue) {
  const std::size_t shard = shard_of(queue_name);
  auto q = queue_or_throw(queue_name, shard);
  const auto seq = q->nack(delivery_tag, requeue);
  if (!seq) return false;
  if (!requeue && q->options().durable) {
    JournalWriter* writer = journal_writer_for(shard, queue_name);
    if (writer != nullptr) {
      // A dropped message is final, like an ack, for recovery purposes.
      json::Value rec;
      rec["op"] = "ack";
      rec["q"] = queue_name;
      rec["seq"] = *seq;
      journal_append(writer, rec);
    }
  }
  if (requeue && m_.requeued != nullptr) m_.requeued->add(1);
  return true;
}

std::size_t Broker::requeue_unacked(const std::string& queue_name) {
  const std::size_t n =
      queue_or_throw(queue_name, shard_of(queue_name))->requeue_unacked();
  if (n > 0 && m_.requeued != nullptr) m_.requeued->add(n);
  return n;
}

void Broker::delete_queue(const std::string& queue_name) {
  Shard& shard = *shards_[shard_of(queue_name)];
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  const std::shared_ptr<const QueueMap> map =
      shard.snapshot.load(std::memory_order_acquire);
  const auto it = map->find(queue_name);
  if (it == map->end()) return;
  it->second->close();
  auto next = std::make_shared<QueueMap>(*map);
  next->erase(queue_name);
  shard.snapshot.store(std::shared_ptr<const QueueMap>(std::move(next)),
                       std::memory_order_release);
}

void Broker::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mutex);
    const std::shared_ptr<const QueueMap> map =
        shard->snapshot.load(std::memory_order_acquire);
    for (const auto& [name, q] : *map) {
      (void)name;
      q->close();
    }
  }
  // Final journal drain: a cleanly closed broker leaves every journaled
  // record on disk. Throws MqError when any shard's drain (or an earlier
  // flush) failed, so callers learn their durable backlog may be
  // incomplete; all shards are closed before the first error is rethrown.
  std::string first_error;
  for (auto& shard : shards_) {
    if (shard->journal == nullptr) continue;
    try {
      shard->journal->close();
    } catch (const MqError& e) {
      if (first_error.empty()) first_error = e.what();
    }
  }
  const std::shared_ptr<const PartitionMap> parts =
      partitions_.load(std::memory_order_acquire);
  for (const auto& [tenant, part] : *parts) {
    (void)tenant;
    for (auto& writer : part->writers) {
      try {
        writer->close();
      } catch (const MqError& e) {
        if (first_error.empty()) first_error = e.what();
      }
    }
  }
  if (!first_error.empty()) throw MqError(first_error);
}

std::string Broker::health() const {
  for (const auto& shard : shards_) {
    if (shard->journal == nullptr) continue;
    const std::string err = shard->journal->error();
    if (!err.empty()) return err;
  }
  const std::shared_ptr<const PartitionMap> parts =
      partitions_.load(std::memory_order_acquire);
  for (const auto& [tenant, part] : *parts) {
    (void)tenant;
    for (const auto& writer : part->writers) {
      const std::string err = writer->error();
      if (!err.empty()) return err;
    }
  }
  return "";
}

BrokerStats Broker::stats() const {
  BrokerStats s;
  for (const auto& shard : shards_) {
    const std::shared_ptr<const QueueMap> map =
        shard->snapshot.load(std::memory_order_acquire);
    s.queues += map->size();
    for (const auto& [name, q] : *map) {
      (void)name;
      const QueueStats qs = q->stats();
      s.published += qs.published;
      s.delivered += qs.delivered;
      s.acked += qs.acked;
    }
  }
  return s;
}

std::vector<QueueDepth> Broker::depth_snapshot() const {
  std::vector<std::shared_ptr<Queue>> queues;
  for (const auto& shard : shards_) {
    const std::shared_ptr<const QueueMap> map =
        shard->snapshot.load(std::memory_order_acquire);
    for (const auto& [name, q] : *map) {
      (void)name;
      queues.push_back(q);
    }
  }
  std::vector<QueueDepth> out;
  out.reserve(queues.size());
  for (const auto& q : queues) out.push_back(q->depth());
  // Name order, not shard order: the snapshot is identical at every shard
  // count (parity with the historical single-map iteration order).
  std::sort(out.begin(), out.end(),
            [](const QueueDepth& a, const QueueDepth& b) {
              return a.queue < b.queue;
            });
  return out;
}

std::vector<QueueDepth> Broker::depth_snapshot(
    const std::string& prefix) const {
  if (prefix.empty()) return depth_snapshot();
  std::vector<std::shared_ptr<Queue>> queues;
  for (const auto& shard : shards_) {
    const std::shared_ptr<const QueueMap> map =
        shard->snapshot.load(std::memory_order_acquire);
    // Each shard map is name-ordered: jump to the first candidate and stop
    // at the first non-match, so only the matching range is walked.
    for (auto it = map->lower_bound(prefix);
         it != map->end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      queues.push_back(it->second);
    }
  }
  std::vector<QueueDepth> out;
  out.reserve(queues.size());
  for (const auto& q : queues) out.push_back(q->depth());
  std::sort(out.begin(), out.end(),
            [](const QueueDepth& a, const QueueDepth& b) {
              return a.queue < b.queue;
            });
  return out;
}

void Broker::journal_append(JournalWriter* writer,
                            const json::Value& record) {
  // JournalWriter::append throws MqError on short writes / flush failures,
  // so a failing disk surfaces to the publisher instead of being dropped.
  writer->append(record.dump());
}

void Broker::journal_append_batch(JournalWriter* writer,
                                  const std::vector<json::Value>& records) {
  // The records land in one commit segment; the group-commit flusher pays
  // one fwrite + one fflush for the whole batch (or more, merged with
  // concurrent publishers' records).
  std::string buffer;
  for (const json::Value& record : records) {
    buffer += record.dump();
    buffer += '\n';
  }
  if (!buffer.empty()) buffer.pop_back();  // append() adds the newline
  writer->append(buffer, records.size());
}

std::size_t Broker::recover(const std::string& path) {
  // The journal is a file *set*: `path` (shard 0) plus any "<path>.K"
  // siblings a multi-shard writer left behind, plus — layout-aware — any
  // tenant partition "<dirname>/<tenant>/<basename>[.K]" a multi-tenant
  // daemon wrote. A queue's pub and its ack can live in different files
  // when the shard count changed between restarts, so replay is
  // two-phase: gather every pub and every ack across all files first,
  // subtract, then restore.
  std::map<std::string, std::map<std::uint64_t, Message>> pending;
  std::vector<std::pair<std::string, std::uint64_t>> acked;
  bool any_opened = false;
  const auto replay_set = [&](const std::string& base) {
    for (std::size_t k = 0;; ++k) {
      const std::string file =
          k == 0 ? base : base + "." + std::to_string(k);
      std::ifstream in(file);
      if (!in) break;  // contiguous numbering: first missing ends the set
      any_opened = true;
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        json::Value rec;
        try {
          rec = json::parse(line);
        } catch (const json::ParseError&) {
          // A torn final line (crash mid-write) is expected; stop reading
          // this shard file — siblings tore (or not) independently.
          ENTK_WARN("broker") << "journal: skipping torn record in " << file;
          break;
        }
        const std::string op = rec.get_string("op", "");
        const std::string qname = rec.get_string("q", "");
        const auto seq = static_cast<std::uint64_t>(rec.get_int("seq", 0));
        if (op == "pub") {
          Message m;
          m.seq = seq;
          m.routing_key = qname;
          if (rec.contains("headers")) m.headers = rec.at("headers");
          m.set_body(rec.get_string("body", ""));
          pending[qname].emplace(seq, std::move(m));
        } else if (op == "ack") {
          acked.emplace_back(qname, seq);
        }
      }
    }
  };
  replay_set(path);
  // Tenant partitions: subdirectories of dirname(path) holding a journal
  // with the same basename. Queue names inside are already
  // tenant-qualified, so replaying them into the shared two-phase pass
  // restores each tenant's backlog under its own namespace.
  {
    namespace fs = std::filesystem;
    const fs::path base(path);
    const fs::path dir =
        base.has_parent_path() ? base.parent_path() : fs::path(".");
    std::error_code ec;
    std::vector<fs::path> partition_files;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      std::error_code type_ec;
      if (!it->is_directory(type_ec) || type_ec) continue;
      // Only directories the write side could have created as partitions
      // (names that are valid tenant ids) are replayed — a ".backup",
      // "snap~" or otherwise non-token-named copy of the journal sitting
      // next to it must not reappear as phantom live messages. A stray
      // valid-id-shaped directory is indistinguishable from a real
      // partition; keep foreign data out of the journal tree.
      const std::string dirname = it->path().filename().string();
      if (dirname.empty() || !valid_tenant_id(dirname)) continue;
      const fs::path candidate = it->path() / base.filename();
      std::error_code exists_ec;
      if (fs::exists(candidate, exists_ec) && !exists_ec) {
        partition_files.push_back(candidate);
      }
    }
    // Directory iteration order is unspecified; sort so recovery is
    // deterministic across filesystems.
    std::sort(partition_files.begin(), partition_files.end());
    for (const fs::path& file : partition_files) {
      replay_set(file.string());
    }
  }
  if (!any_opened) {
    throw MqError("broker: cannot read journal " + path);
  }
  for (const auto& [qname, seq] : acked) {
    auto it = pending.find(qname);
    if (it != pending.end()) it->second.erase(seq);
  }
  std::size_t restored = 0;
  for (auto& [qname, msgs] : pending) {
    auto q = declare_queue(qname, QueueOptions{.durable = true});
    for (auto& [seq, msg] : msgs) {
      std::uint64_t expected = next_seq_.load(std::memory_order_relaxed);
      while (expected <= seq &&
             !next_seq_.compare_exchange_weak(expected, seq + 1,
                                              std::memory_order_relaxed)) {
      }
      q->publish(std::move(msg));
      ++restored;
    }
  }
  return restored;
}

}  // namespace entk::mq
