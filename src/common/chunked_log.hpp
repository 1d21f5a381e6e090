// Append-only record log stored in fixed-size chunks.
//
// The Profiler and the StateStore append hundreds of thousands of records
// per run under one mutex. In a std::vector every capacity doubling moves
// the whole log while that mutex is held, so every component thread that
// records an event stalls behind one append for tens of milliseconds at
// the larger sizes. Here an append never moves an earlier record: a full
// chunk is kept and a new one started, so each append costs the same.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace entk {

template <typename T, std::size_t kChunk = 4096>
class ChunkedLog {
 public:
  void push_back(T record) {
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back().reserve(kChunk);
    }
    chunks_.back().push_back(std::move(record));
    ++size_;
  }

  /// The last record; the log must not be empty.
  const T& back() const { return chunks_.back().back(); }
  std::size_t size() const { return size_; }

  void clear() {
    chunks_.clear();
    size_ = 0;
  }

  /// Calls `fn(record)` for every record, in append order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::vector<T>& chunk : chunks_) {
      for (const T& record : chunk) fn(record);
    }
  }

  /// Copy of every record, in append order.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size_);
    for_each([&out](const T& record) { out.push_back(record); });
    return out;
  }

 private:
  std::vector<std::vector<T>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace entk
