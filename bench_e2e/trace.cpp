#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/recorder.hpp"

namespace bench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int Tracer::begin(std::string name, int parent, std::string job) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.t0 = now_s();
  s.t1 = s.t0;
  s.parent = parent;
  s.job = std::move(job);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].t1 = now_s();
}

int Tracer::add(Span span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::track(std::string label) {
  tracks_.push_back(std::move(label));
  return static_cast<int>(tracks_.size()) - 1;
}

void Tracer::add_job_steps(const casp::vmpi::RunResult& run,
                           const std::string& job, int pid, int parent) {
  if (!enabled_ || run.recorders.empty()) return;
  // All ranks of a job share one epoch; recover where it sits on the
  // benchmark clock from how long ago it started.
  const double epoch = now_s() - run.recorders.front().now();
  for (std::size_t r = 0; r < run.recorders.size(); ++r) {
    for (const casp::obs::TimelineEvent& ev : run.recorders[r].events()) {
      if (ev.kind == casp::obs::TimelineEvent::Kind::kCounter) continue;
      steps_.push_back({ev.name, ev.kind == casp::obs::TimelineEvent::Kind::kBegin,
                        epoch + ev.t, pid, static_cast<int>(r)});
    }
  }
  Span whole;
  whole.name = "job-run";
  whole.t0 = epoch;
  whole.t1 = epoch + run.wall_seconds;
  whole.parent = parent;
  whole.job = job;
  whole.pid = pid;
  whole.tid = static_cast<int>(run.recorders.size());
  spans_.push_back(std::move(whole));
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string micros(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("bench: cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t pid = 0; pid < tracks_.size(); ++pid) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":" << quoted(tracks_[pid]) << "}}";
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    out << "{\"name\":" << quoted(s.name) << ",\"cat\":\"bench\",\"ph\":\"X\""
        << ",\"ts\":" << micros(s.t0) << ",\"dur\":" << micros(s.t1 - s.t0)
        << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"job\":" << quoted(s.job) << "}}";
  }
  for (const StepEvent& e : steps_) {
    sep();
    out << "{\"name\":" << quoted(e.name) << ",\"cat\":\"step\",\"ph\":\""
        << (e.begin ? 'B' : 'E') << "\",\"ts\":" << micros(e.t)
        << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("bench: short write on trace " + path);
}

}  // namespace bench
