// Shared pieces of the frame benchmark program: process counters, a pausable
// meter for the timed loop, the in-memory span recorder and per-layer
// samples behind the traced run, and the result every workload hands back
// to main().
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace framebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// getrusage of this process plus its reaped children (the --procs worker
/// processes are reaped at the end of every clip, so they count here).
struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double minflt = 0.0;
  double nvcsw = 0.0;
  double nivcsw = 0.0;

  [[nodiscard]] static Usage now() {
    Usage u;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
      rusage r{};
      ::getrusage(who, &r);
      u.user_ms += static_cast<double>(r.ru_utime.tv_sec) * 1e3 +
                   static_cast<double>(r.ru_utime.tv_usec) * 1e-3;
      u.sys_ms += static_cast<double>(r.ru_stime.tv_sec) * 1e3 +
                  static_cast<double>(r.ru_stime.tv_usec) * 1e-3;
      u.minflt += static_cast<double>(r.ru_minflt);
      u.nvcsw += static_cast<double>(r.ru_nvcsw);
      u.nivcsw += static_cast<double>(r.ru_nivcsw);
    }
    return u;
  }

  Usage& operator+=(const Usage& o) {
    user_ms += o.user_ms;
    sys_ms += o.sys_ms;
    minflt += o.minflt;
    nvcsw += o.nvcsw;
    nivcsw += o.nivcsw;
    return *this;
  }
  [[nodiscard]] Usage operator-(const Usage& o) const {
    return Usage{user_ms - o.user_ms, sys_ms - o.sys_ms, minflt - o.minflt, nvcsw - o.nvcsw,
                 nivcsw - o.nivcsw};
  }
};

/// Max resident set of this process and of its largest reaped child, MiB.
[[nodiscard]] inline double peak_rss_mib() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const long kib = self.ru_maxrss > children.ru_maxrss ? self.ru_maxrss : children.ru_maxrss;
  return static_cast<double>(kib) / 1024.0;
}

/// Wall time and process counters of the timed loop. Checks run between
/// pause() and resume(), so neither their time nor their CPU is counted.
class Meter {
 public:
  void resume() {
    started_ = Clock::now();
    usage_at_start_ = Usage::now();
  }
  void pause() {
    usage_ += Usage::now() - usage_at_start_;
    wall_ms_ += ms_between(started_, Clock::now());
  }
  [[nodiscard]] double wall_ms() const { return wall_ms_; }
  [[nodiscard]] const Usage& usage() const { return usage_; }
  /// Measured time so far, counting the current running interval.
  [[nodiscard]] double running_ms() const { return wall_ms_ + ms_between(started_, Clock::now()); }

 private:
  Clock::time_point started_;
  Usage usage_at_start_;
  Usage usage_;
  double wall_ms_ = 0.0;
};

/// One Chrome trace "complete" event. `frame` is the frame (or clip) id the
/// span belongs to; -1 for probes and set-up.
struct Span {
  std::string name;
  std::string cat;
  std::int64_t frame = -1;
  double t0_us = 0.0;
  double t1_us = 0.0;
  std::vector<std::pair<std::string, double>> args;
  int tid = 0;  ///< display lane (the client session in service-mix)
};

/// In-memory span recorder. Disabled (the untraced run), it records nothing.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  /// Record [t0_us, now) under `name`; returns the span's duration in ms.
  double close(std::string name, std::string cat, std::int64_t frame, double t0_us,
               std::vector<std::pair<std::string, double>> args = {}) {
    const double t1 = now_us();
    if (enabled_) {
      spans_.push_back({std::move(name), std::move(cat), frame, t0_us, t1, std::move(args)});
    }
    return (t1 - t0_us) / 1e3;
  }
  /// Record a span measured elsewhere (client threads, service stamps).
  void add(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write the spans as Chrome trace-event JSON (opens in Perfetto or
  /// chrome://tracing). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// A measured value with ten significant digits, as printed in results.
[[nodiscard]] inline std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back: operation accounting, the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run), and the
/// human-readable notes printed before the result line.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  std::string work_dir = ".";  ///< where procs-orbit puts its unix sockets
};

/// Per-layer samples of the traced run, reported under the fixed per-layer
/// table (bench.cpp, the same list as BENCHMARK.json). Every traced run
/// reports every metric of the table; a layer the workload does not
/// exercise reads 0.
class Layers {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }
  /// Replace the samples of `name` with one value (per-run figures).
  void set(const std::string& name, double value) { samples_[name] = {value}; }
  [[nodiscard]] std::vector<Metric> metrics() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Linear-interpolated percentile (p in [0, 100]) of a sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

RunResult run_composite_768(const Options& opts);
RunResult run_orbit_render(const Options& opts);
RunResult run_orbit_dense(const Options& opts);
RunResult run_service_mix(const Options& opts);
RunResult run_procs_orbit(const Options& opts);

}  // namespace framebench
