// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the service (submit, wait, drain) and into the grid/summa
// layers on the resident pool, merged with each job's own step spans and
// written as one Chrome trace-event file on a single time base.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "vmpi/runtime.hpp"

namespace bench {

/// Seconds since the benchmark's epoch (the first call). Every span, job
/// step and rank replica is placed on this clock.
double now_s();

struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;  ///< index of the enclosing span in the tracer, or -1
  std::string job;  ///< job id the span belongs to ("" for client spans)
  int pid = 0;      ///< trace track: 0 = client, >0 = one job's ranks
  int tid = 0;      ///< rank within the track
};

/// In-memory span store; disabled tracers record nothing and cost one
/// branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a client span; returns its index, or -1 when disabled.
  int begin(std::string name, int parent = -1, std::string job = {});
  void end(int index);
  /// Appends a finished span (rank replica spans are timed on the ranks).
  int add(Span span);
  /// New trace track (Chrome "process") labelled `label`; returns its pid.
  int track(std::string label);
  /// Copies a finished job's per-rank step spans onto track `pid`, shifted
  /// from the job's own epoch onto the benchmark clock.
  void add_job_steps(const casp::vmpi::RunResult& run, const std::string& job,
                     int pid, int parent);

  std::size_t size() const { return spans_.size() + steps_.size(); }
  /// Chrome trace-event JSON; throws std::runtime_error on I/O failure.
  void write_chrome(const std::string& path) const;

 private:
  struct StepEvent {
    std::string name;
    bool begin = true;
    double t = 0.0;
    int pid = 0;
    int tid = 0;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<StepEvent> steps_;
  std::vector<std::string> tracks_ = {"client"};
};

/// RAII client span.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, int parent = -1,
         std::string job = {})
      : tracer_(tracer), index_(tracer.begin(std::move(name), parent,
                                             std::move(job))) {}
  ~Scoped() { tracer_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace bench
