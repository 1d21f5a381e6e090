// Transactional state store (paper §II-B-4).
//
// "All state updates in EnTK are transactional, hence any EnTK component
// that fails can be restarted at runtime without losing information about
// ongoing execution." Every committed transition is appended as one JSONL
// record; recovery replays the journal to the last complete record. Hooks
// for an external database are modeled by the pluggable sink.
//
// Durability rides the same group-commit JournalWriter as the broker
// journal (one flush per batch instead of one fflush per commit) and obeys
// the same fsync-policy knob: with JournalConfig::sync_every_append the
// record is on disk when commit() returns (the seed's per-record flush);
// otherwise at most the unflushed tail inside the commit window is lost on
// a hard crash, and flush() is the explicit barrier. I/O errors are sticky
// and surface as MqError out of commit() — a transactional store must not
// silently drop transactions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/chunked_log.hpp"
#include "src/json/json.hpp"
#include "src/mq/journal.hpp"

namespace entk {

struct StateTransaction {
  std::uint64_t seq = 0;
  double wall_s = 0.0;
  std::string uid;        ///< subject (task/stage/pipeline uid)
  std::string kind;       ///< "task" | "stage" | "pipeline"
  std::string from_state;
  std::string to_state;
  std::string component;  ///< who requested the transition
};

class StateStore {
 public:
  /// `journal_path` empty -> in-memory only (no durability). `journal`
  /// sets the group-commit flush policy (sync_every_append = seed-style
  /// flush-per-commit).
  explicit StateStore(std::string journal_path = "",
                      mq::JournalConfig journal = {});
  ~StateStore();

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Commit a transition; the record is in the group-commit segment when
  /// this returns (on disk with sync_every_append, or after flush()).
  /// Returns the transaction sequence number; throws MqError when the
  /// journal hit a sticky I/O error.
  std::uint64_t commit(const std::string& uid, const std::string& kind,
                       const std::string& from_state,
                       const std::string& to_state,
                       const std::string& component);

  /// Durability barrier: every commit so far is on disk when this
  /// returns. No-op for an in-memory store.
  void flush();

  /// Latest committed state of `uid` ("" when unknown).
  std::string state_of(const std::string& uid) const;

  /// All transactions, in commit order.
  std::vector<StateTransaction> history() const;
  std::size_t transaction_count() const;

  /// Optional external sink (the "hooks ... to use an external database"):
  /// invoked after each durable commit.
  void set_external_sink(std::function<void(const StateTransaction&)> sink);

  /// Replay a journal into this (fresh) store; stops at the first torn
  /// record. Returns the number of transactions recovered.
  std::size_t recover(const std::string& journal_path);

  const std::string& journal_path() const { return journal_path_; }

  /// The group-commit writer (nullptr for an in-memory store). Exposed for
  /// tests that need crash injection (simulate_crash) or flush accounting.
  mq::JournalWriter* journal_writer() { return writer_.get(); }

 private:
  void append_locked(const StateTransaction& t);

  const std::string journal_path_;
  mutable std::mutex mutex_;
  std::unique_ptr<mq::JournalWriter> writer_;
  std::uint64_t next_seq_ = 1;
  std::map<std::string, std::string> latest_;
  ChunkedLog<StateTransaction> history_;
  std::function<void(const StateTransaction&)> sink_;
};

}  // namespace entk
