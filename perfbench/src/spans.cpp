#include "spans.h"

#include "common/json.h"
#include "common/string_util.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Scope Tracer::span(const char* name, std::int64_t job) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.job = job;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_since(epoch_);
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = seconds_since(epoch_);
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> self;
  for (const Span& s : spans_) self[s.name] += s.end_s - s.start_s;
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[spans_[static_cast<std::size_t>(s.parent)].name] -=
          s.end_s - s.start_s;
    }
  }
  return self;
}

void Tracer::append_jsonl(std::string& out, int pass) const {
  using dufp::json::Value;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Value o = Value::make_object();
    o.add("pass", Value::make_i64(pass));
    o.add("id", Value::make_i64(static_cast<std::int64_t>(i)));
    o.add("parent", Value::make_i64(s.parent));
    o.add("job", Value::make_i64(s.job));
    o.add("name", Value::make_string(s.name));
    o.add("start_s", Value::make_raw_number(dufp::strf("%.9f", s.start_s)));
    o.add("end_s", Value::make_raw_number(dufp::strf("%.9f", s.end_s)));
    out += o.dump();
    out += '\n';
  }
}

}  // namespace perfbench
