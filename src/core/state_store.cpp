#include "src/core/state_store.hpp"

#include <fstream>

#include "src/common/clock.hpp"
#include "src/common/error.hpp"
#include "src/common/log.hpp"

namespace entk {

StateStore::StateStore(std::string journal_path, mq::JournalConfig journal)
    : journal_path_(std::move(journal_path)) {
  if (!journal_path_.empty()) {
    writer_ = std::make_unique<mq::JournalWriter>(journal_path_, journal);
  }
}

StateStore::~StateStore() = default;  // writer close() flushes the tail

std::uint64_t StateStore::commit(const std::string& uid,
                                 const std::string& kind,
                                 const std::string& from_state,
                                 const std::string& to_state,
                                 const std::string& component) {
  StateTransaction t;
  t.wall_s = wall_now_s();
  t.uid = uid;
  t.kind = kind;
  t.from_state = from_state;
  t.to_state = to_state;
  t.component = component;

  std::function<void(const StateTransaction&)> sink;
  const std::uint64_t seq = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    t.seq = next_seq_++;
    append_locked(t);
    latest_[uid] = to_state;
    sink = sink_;
    if (sink) {
      history_.push_back(t);  // t still needed for the sink call below
    } else {
      history_.push_back(std::move(t));
    }
    return history_.back().seq;
  }();
  if (sink) sink(t);
  return seq;
}

void StateStore::append_locked(const StateTransaction& t) {
  if (writer_ == nullptr) return;
  json::Value v;
  v["seq"] = t.seq;
  v["wall_s"] = t.wall_s;
  v["uid"] = t.uid;
  v["kind"] = t.kind;
  v["from"] = t.from_state;
  v["to"] = t.to_state;
  v["component"] = t.component;
  writer_->append(v.dump());
}

void StateStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (writer_ != nullptr) writer_->flush();
}

std::string StateStore::state_of(const std::string& uid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = latest_.find(uid);
  return it == latest_.end() ? "" : it->second;
}

std::vector<StateTransaction> StateStore::history() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return history_.to_vector();
}

std::size_t StateStore::transaction_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return history_.size();
}

void StateStore::set_external_sink(
    std::function<void(const StateTransaction&)> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

std::size_t StateStore::recover(const std::string& journal_path) {
  std::ifstream in(journal_path);
  if (!in) throw EnTKError("StateStore: cannot read " + journal_path);
  std::size_t n = 0;
  std::string line;
  std::lock_guard<std::mutex> lock(mutex_);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const json::ParseError&) {
      ENTK_WARN("state_store") << "stopping recovery at torn record";
      break;
    }
    StateTransaction t;
    t.seq = static_cast<std::uint64_t>(v.get_int("seq", 0));
    t.wall_s = v.get_double("wall_s", 0.0);
    t.uid = v.get_string("uid", "");
    t.kind = v.get_string("kind", "");
    t.from_state = v.get_string("from", "");
    t.to_state = v.get_string("to", "");
    t.component = v.get_string("component", "");
    if (next_seq_ <= t.seq) next_seq_ = t.seq + 1;
    latest_[t.uid] = t.to_state;
    history_.push_back(std::move(t));
    ++n;
  }
  return n;
}

}  // namespace entk
