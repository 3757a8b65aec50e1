#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

Spans::Scope::Scope(Spans* spans, std::string name, std::uint32_t episode)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.id = spans_->spans_.size() + 1;
  s.parent = spans_->open_.empty() ? 0 : spans_->spans_[spans_->open_.back()].id;
  s.episode = episode;
  s.start_us = spans_->now_us();
  index_ = spans_->spans_.size();
  spans_->spans_.push_back(std::move(s));
  spans_->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[index_].end_us = spans_->now_us();
  spans_->open_.pop_back();
}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end_us >= s.start_us)
      out.push_back((s.end_us - s.start_us) / 1e3);
  return out;
}

bool Spans::write(const std::string& path,
                  const std::string& other_data) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                  "\"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": "
                  "%.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                  "\"episode\": %u}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                  s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.episode);
    os << buf;
  }
  os << "\n],\n\"otherData\": " << other_data << "\n}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
