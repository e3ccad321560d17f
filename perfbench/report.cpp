#include "report.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    o << (i ? ", " : "") << quote(failures_[i]);
  }
  o << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    o << (i ? ", " : "") << quote(m.name) << ": {\"value\": " << number(m.value)
      << ", \"unit\": " << quote(m.unit) << ", \"samples\": " << m.samples
      << "}";
  }
  o << "}, \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    o << (first ? "" : ", ") << quote(k) << ": " << v;
    first = false;
  }
  o << "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : info_) {
    o << (first ? "" : ", ") << quote(k) << ": " << quote(v);
    first = false;
  }
  o << "}}";
  return o.str();
}

bool Trace::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    f << "  {\"name\": " << quote(s.name) << ", \"ph\": \"X\", \"pid\": 1, "
      << "\"tid\": 1, \"ts\": " << number(s.start_s * 1e6)
      << ", \"dur\": " << number(s.dur_s * 1e6) << ", \"args\": {\"id\": "
      << s.id << ", \"parent\": " << s.parent << ", \"kind\": "
      << quote(s.kind) << ", \"from_ledger\": "
      << (s.from_ledger ? "true" : "false") << "}}"
      << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
