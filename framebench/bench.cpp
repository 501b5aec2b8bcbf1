#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace framebench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

namespace {

enum class Agg { kMedian, kMean };

struct LayerMetric {
  const char* name;
  const char* unit;
  Agg agg;
};

// The per-layer table of BENCHMARK.json, in the same order. Times are the
// median over frames (or probes); counts and bytes are the mean per frame.
constexpr LayerMetric kLayerMetrics[] = {
    {"volume.make_dataset_ms", "ms", Agg::kMedian},
    {"render.brick_ms_sum", "ms", Agg::kMedian},
    {"render.brick_ms_max", "ms", Agg::kMedian},
    {"render.samples", "count", Agg::kMean},
    {"render.rays", "count", Agg::kMean},
    {"render.ns_per_sample", "ns", Agg::kMedian},
    {"core.composite_ms", "ms", Agg::kMedian},
    {"core.composite_ms.BS", "ms", Agg::kMedian},
    {"core.composite_ms.BSBR", "ms", Agg::kMedian},
    {"core.composite_ms.BSLC", "ms", Agg::kMedian},
    {"core.composite_ms.BSBRC", "ms", Agg::kMedian},
    {"core.spmd_ms", "ms", Agg::kMedian},
    {"core.post_ms", "ms", Agg::kMedian},
    {"core.reference_ms", "ms", Agg::kMedian},
    {"core.over_ops", "count", Agg::kMean},
    {"core.encoded_pixels", "count", Agg::kMean},
    {"core.rect_scanned", "count", Agg::kMean},
    {"core.codes_emitted", "count", Agg::kMean},
    {"core.pixels_sent", "count", Agg::kMean},
    {"core.m_max_bytes", "B", Agg::kMean},
    {"core.received_bytes", "B", Agg::kMean},
    {"core.model_comp_ms", "ms", Agg::kMean},
    {"core.model_comm_ms", "ms", Agg::kMean},
    {"image.over_bytes_computed", "B", Agg::kMean},
    {"proc.minflt", "count", Agg::kMean},
    {"proc.minflt.384", "count", Agg::kMean},
    {"proc.sys_ms", "ms", Agg::kMean},
    {"proc.nvcsw", "count", Agg::kMean},
    {"proc.nivcsw", "count", Agg::kMean},
    {"pvr.queue_ms_p50", "ms", Agg::kMean},
    {"pvr.run_ms_p50", "ms", Agg::kMean},
    {"pvr.cold_run_ms_p50", "ms", Agg::kMean},
    {"pvr.scratch_bytes", "B", Agg::kMean},
    {"mp.procs_startup_ms", "ms", Agg::kMedian},
    {"mp.procs_spmd_ms", "ms", Agg::kMedian},
    {"trace.frame_ms_p50", "ms", Agg::kMean},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::vector<Metric> Layers::metrics() const {
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    const auto it = samples_.find(m.name);
    if (it != samples_.end() && !it->second.empty()) {
      const std::vector<double>& v = it->second;
      if (m.agg == Agg::kMedian) {
        value = median(v);
      } else {
        double sum = 0.0;
        for (const double x : v) sum += x;
        value = sum / static_cast<double>(v.size());
      }
    }
    out.push_back({m.name, value, m.unit});
  }
  return out;
}

bool Trace::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", s.t0_us, s.t1_us - s.t0_us);
    f << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"" << json_escape(s.cat)
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ',' << buf << ",\"args\":{\"frame\":"
      << s.frame;
    for (const auto& [key, value] : s.args) f << ",\"" << json_escape(key) << "\":" << value;
    f << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace framebench
