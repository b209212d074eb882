#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace solarnet::solarbench {

Tracer::Tracer(std::string phase)
    : phase_(std::move(phase)), origin_(Clock::now()) {
  spans_.reserve(1 << 14);
}

std::int64_t Tracer::ns_since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::uint64_t Tracer::record(std::string_view name, std::uint64_t parent,
                             std::uint64_t op, Clock::time_point start,
                             Clock::time_point end) {
  Span span;
  span.id = next_id();
  span.parent = parent;
  span.op = op;
  span.name = std::string(name);
  span.start_ns = ns_since_origin(start);
  span.end_ns = ns_since_origin(end);
  const std::uint64_t id = span.id;
  record(std::move(span));
  return id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name,
                       std::uint64_t parent, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = id_ = tracer_->next_id();
  span_.parent = parent;
  span_.op = op;
  span_.name = std::string(name);
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  tracer_->record(std::move(span_));
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t begin = std::max(s.start_ns, p.start_ns);
    const std::int64_t end = std::min(s.end_ns, p.end_ns);
    if (begin < end) children[it->second].emplace_back(begin, end);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_begin = 0;
    std::int64_t run_end = -1;
    bool open = false;
    for (const auto& [begin, end] : cover) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::vector<SpanSummary> summarize(const Tracer& tracer) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [durations, selfs] = by_name[spans[i].name];
    durations.push_back(spans[i].duration_ms());
    selfs.push_back(static_cast<double>(self[i]) / 1e6);
  }
  std::vector<SpanSummary> out;
  for (auto& [name, samples] : by_name) {
    SpanSummary row;
    row.phase = tracer.phase();
    row.name = name;
    row.count = samples.first.size();
    for (const double d : samples.first) row.total_ms += d;
    row.median_ms = median(samples.first);
    row.median_self_ms = median(samples.second);
    out.push_back(std::move(row));
  }
  return out;
}

void write_trace_json(const std::string& path,
                      const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t pid = 0; pid < tracers.size(); ++pid) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"process_name\",\"ph\":\"M\","
        << "\"pid\":" << pid << ",\"args\":{\"name\":\""
        << tracers[pid]->phase() << "\"}}";
    first = false;
    for (const Span& s : tracers[pid]->spans()) {
      out << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":" << pid
          << ",\"tid\":" << s.op << ",\"ts\":"
          << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}}";
    }
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("error writing trace file " + path);
}

}  // namespace solarnet::solarbench
