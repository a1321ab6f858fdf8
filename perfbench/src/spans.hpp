#pragma once

// In-memory spans for the traced run. The benchmark records one span around
// each call it makes into a layer of lbnn (no spans inside the program); the
// spans of one request share its id and hang off the request's root span.
// They stay in memory until the run ends and are then written out once.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::int32_t parent = -1;   ///< index of the causing span, -1 for a root
  std::uint16_t name = 0;     ///< from SpanLog::name_id()
};

/// Self time of every span: its duration minus the part of its interval that
/// its children's intervals cover (overlapping children count once, and a
/// child sticking out of its parent is clipped to it).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[p].push_back(static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = std::max(lo, spans[i].end_ns);
    iv.clear();
    for (const std::int32_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// The layer a span belongs to: its name up to the first '.'.
inline std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  std::uint16_t name_id(const std::string& name) {
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end()) return static_cast<std::uint16_t>(it - names_.begin());
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  /// Appends a span and returns its index, or -1 once the log is full (the
  /// span is then counted as dropped).
  std::int32_t add(std::uint16_t name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint64_t request) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({start_ns, end_ns, request, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void set_end(std::int32_t index, std::int64_t end_ns) {
    if (index >= 0) spans_[index].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Self time summed per layer, and the summed duration of root spans.
  std::map<std::string, double> layer_self_seconds(double* root_seconds) const {
    const std::vector<std::int64_t> self = self_times(spans_);
    std::map<std::string, double> out;
    double roots = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[layer_of(names_[spans_[i].name])] += static_cast<double>(self[i]) * 1e-9;
      if (spans_[i].parent < 0) {
        roots += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
      }
    }
    if (root_seconds != nullptr) *root_seconds = roots;
    return out;
  }

  /// Every span as JSON: a name table, then one row per span in log order
  /// (a span's index is its row), [name, start_ns, end_ns, parent, request],
  /// where name indexes the table and parent is a row or -1.
  void write_json(std::ostream& os) const {
    os << "{\"spans_recorded\":" << spans_.size() << ",\"spans_dropped\":" << dropped_
       << ",\"names\":[";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      os << (i ? "," : "") << '"' << names_[i] << '"';
    }
    os << "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],"
          "\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n[" : "\n[") << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
         << s.parent << ',' << s.request << ']';
    }
    os << "]}\n";
  }

 private:
  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
