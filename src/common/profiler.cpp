#include "src/common/profiler.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/common/clock.hpp"
#include "src/common/error.hpp"

namespace entk {

void Profiler::record(const std::string& component, const std::string& event,
                      const std::string& uid, double virtual_s) {
  ProfileEvent e;
  e.wall_us = wall_now_us();
  e.virtual_s = virtual_s;
  e.component = component;
  e.event = event;
  e.uid = uid;
  std::lock_guard<std::mutex> lock(mutex_);
  // Maintain the per-event-name index inline so first/last/count queries
  // never rescan the log.
  EventIndexEntry& entry = index_[event];
  if (entry.count == 0) entry.first_us = e.wall_us;
  entry.last_us = e.wall_us;
  ++entry.count;
  events_.push_back(std::move(e));
}

std::vector<ProfileEvent> Profiler::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.to_vector();
}

std::size_t Profiler::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::optional<std::int64_t> Profiler::first_us(const std::string& event) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(event);
  if (it == index_.end()) return std::nullopt;
  return it->second.first_us;
}

std::optional<std::int64_t> Profiler::last_us(const std::string& event) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(event);
  if (it == index_.end()) return std::nullopt;
  return it->second.last_us;
}

double Profiler::span_s(const std::string& start_event,
                        const std::string& end_event) const {
  const auto a = first_us(start_event);
  const auto b = last_us(end_event);
  if (!a || !b) return 0.0;
  return static_cast<double>(*b - *a) * 1e-6;
}

double Profiler::paired_sum_s(const std::string& start_event,
                              const std::string& end_event) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::int64_t> starts;
  double total = 0.0;
  events_.for_each([&](const ProfileEvent& e) {
    if (e.event == start_event) {
      // Keep the first start per uid.
      starts.emplace(e.uid, e.wall_us);
    } else if (e.event == end_event) {
      const auto it = starts.find(e.uid);
      if (it != starts.end()) {
        total += static_cast<double>(e.wall_us - it->second) * 1e-6;
        starts.erase(it);
      }
    }
  });
  return total;
}

std::size_t Profiler::count(const std::string& event) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(event);
  return it == index_.end() ? 0 : it->second.count;
}

namespace {

/// RFC 4180: quote when the field contains a comma, quote, CR or LF;
/// double embedded quotes.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Profiler::dump_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw EnTKError("Profiler: cannot open " + path);
  std::fprintf(f, "wall_us,virtual_s,component,event,uid\n");
  std::lock_guard<std::mutex> lock(mutex_);
  events_.for_each([f](const ProfileEvent& e) {
    std::fprintf(f, "%lld,%.6f,%s,%s,%s\n",
                 static_cast<long long>(e.wall_us), e.virtual_s,
                 csv_field(e.component).c_str(), csv_field(e.event).c_str(),
                 csv_field(e.uid).c_str());
  });
  std::fclose(f);
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  index_.clear();
}

namespace {

/// Split one RFC 4180 record starting at `pos` in `text` (which holds the
/// whole file, so quoted newlines are handled); advances `pos` past the
/// record's trailing newline.
std::vector<std::string> csv_record(const std::string& text,
                                    std::size_t& pos) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  while (pos < text.size()) {
    const char c = text[pos];
    if (quoted) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          field += '"';
          ++pos;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && pos + 1 < text.size() && text[pos + 1] == '\n') ++pos;
      ++pos;
      fields.push_back(std::move(field));
      return fields;
    } else {
      field += c;
    }
    ++pos;
  }
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace

std::vector<ProfileEvent> read_profile_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw EnTKError("read_profile_csv: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::vector<ProfileEvent> out;
  std::size_t pos = 0;
  bool header = true;
  while (pos < text.size()) {
    const std::vector<std::string> fields = csv_record(text, pos);
    if (header) {
      header = false;
      continue;
    }
    if (fields.size() == 1 && fields[0].empty()) continue;  // trailing blank
    if (fields.size() != 5) {
      throw EnTKError("read_profile_csv: malformed row in " + path);
    }
    ProfileEvent e;
    try {
      e.wall_us = std::stoll(fields[0]);
      e.virtual_s = std::stod(fields[1]);
    } catch (const std::exception&) {
      throw EnTKError("read_profile_csv: non-numeric field in " + path);
    }
    e.component = fields[2];
    e.event = fields[3];
    e.uid = fields[4];
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace entk
