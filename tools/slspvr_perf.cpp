// slspvr-perf: the perf-trajectory harness behind BENCH_*.json.
//
// Two sections, both run at the paper's 384^2 / 768^2 image sizes:
//
//  * kernels — op rates of the three hot-path kernels with a vector body
//    (over-blend span, bounding-rect blank scan, RLE run classification),
//    measured once with the vector dispatch and once pinned to the scalar
//    oracle, so the JSON records the speedup the SIMD paths actually
//    deliver on this machine;
//
//  * methods — every paper compositing method end-to-end over synthetic
//    subimages (SPMD, in-process runtime), recording wall-clock, the cost
//    model's critical-path T_comp/T_comm, M_max and received bytes. Every
//    configuration runs under BOTH kernel settings and the two final frames
//    must be byte-identical; any divergence makes the tool exit non-zero,
//    which is what the CI perf-smoke step asserts.
//
// The committed BENCH_8.json also holds two sections this tool no longer
// produces — 1/2/4 intra-rank workers and fused vs unpack-then-blend
// decode — as the record of why each rank now runs one single-lane, fused
// engine path.
//
// A separate mode, --traffic, exercises the FrameService under open-loop
// synthetic arrivals: N concurrent sessions (distinct methods/cameras) are
// flooded with frame requests, the scheduler interleaves them over the
// shared rank pool with bounded admission (shed-oldest), and the tool
// records frames/sec, p50/p99 client latency and the shed count. Every
// completed frame must be byte-identical to that session's serial
// reference frame; any divergence (or a p99 above --p99-bound-ms, when
// given) makes the tool exit non-zero. Traffic output defaults to
// BENCH_10.json.
//
// Output: machine-readable JSON (default BENCH_8.json). --smoke shrinks the
// sweep for CI; the full run is the one to archive in the perf trajectory.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/binary_swap.hpp"
#include "core/bsbrc.hpp"
#include "core/bslc.hpp"
#include "core/wire.hpp"
#include "image/image.hpp"
#include "image/kernels.hpp"
#include "pvr/experiment.hpp"
#include "pvr/frame_service.hpp"
#include "pvr/synthetic.hpp"

namespace img = slspvr::img;
namespace kern = slspvr::img::kern;
namespace core = slspvr::core;
namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;

namespace {

struct PerfOptions {
  bool smoke = false;
  std::string out = "BENCH_8.json";
  bool out_given = false;
  std::vector<int> sizes = {384, 768};
  std::vector<int> ranks = {2, 4, 8};
  double density = 0.3;
  int reps = 7;
  // --traffic mode (FrameService under open-loop arrivals).
  bool traffic = false;
  int sessions = 4;
  int frames = 12;            ///< frames submitted per session
  double period_ms = 0.0;     ///< inter-arrival gap per session (0 = burst)
  double p99_bound_ms = 0.0;  ///< exit non-zero if p99 exceeds this (0 = off)
};

[[noreturn]] void usage(int code) {
  std::cout << "slspvr-perf [--smoke] [--out <path>] [--sizes <csv>] [--ranks <csv>]\n"
               "            [--density <f>] [--reps <n>]\n"
               "Runs the kernel and end-to-end method benchmarks and writes\n"
               "machine-readable JSON. Exits non-zero if the scalar and vector\n"
               "kernel paths ever produce different frames.\n"
               "\n"
               "slspvr-perf --traffic [--smoke] [--sessions <n>] [--frames <n>]\n"
               "            [--period-ms <f>] [--p99-bound-ms <f>] [--out <path>]\n"
               "Floods a FrameService with open-loop frame arrivals from n concurrent\n"
               "sessions and writes frames/sec, p50/p99 latency and shed count\n"
               "(default BENCH_10.json). Exits non-zero if any completed frame\n"
               "differs from its session's serial reference, or p99 exceeds the\n"
               "bound when one is given.\n";
  std::exit(code);
}

std::vector<int> parse_int_csv(const std::string& csv) {
  std::vector<int> values;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos : comma - pos);
    std::size_t used = 0;
    int v = 0;
    try {
      v = std::stoi(tok, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != tok.size() || v <= 0) {
      std::cerr << "slspvr-perf: bad list element '" << tok << "' in '" << csv << "'\n";
      std::exit(2);
    }
    values.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (values.empty()) {
    std::cerr << "slspvr-perf: empty list\n";
    std::exit(2);
  }
  return values;
}

PerfOptions parse_args(int argc, char** argv) {
  PerfOptions opt;
  bool period_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "slspvr-perf: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--out") {
      opt.out = next();
      opt.out_given = true;
    } else if (arg == "--traffic") {
      opt.traffic = true;
    } else if (arg == "--sessions") {
      opt.sessions = std::max(1, std::atoi(next().c_str()));
    } else if (arg == "--frames") {
      opt.frames = std::max(1, std::atoi(next().c_str()));
    } else if (arg == "--period-ms") {
      opt.period_ms = std::max(0.0, std::atof(next().c_str()));
      period_given = true;
    } else if (arg == "--p99-bound-ms") {
      opt.p99_bound_ms = std::max(0.0, std::atof(next().c_str()));
    } else if (arg == "--sizes") {
      opt.sizes = parse_int_csv(next());
    } else if (arg == "--ranks") {
      opt.ranks = parse_int_csv(next());
    } else if (arg == "--density") {
      opt.density = std::atof(next().c_str());
    } else if (arg == "--reps") {
      opt.reps = std::max(1, std::atoi(next().c_str()));
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "slspvr-perf: unknown option " << arg << "\n";
      usage(2);
    }
  }
  if (opt.smoke) {
    opt.sizes = {384};
    opt.ranks = {2, 4};
    opt.reps = 3;
    opt.frames = 6;  // sessions stay >= 3: the gate needs real concurrency
  }
  if (opt.traffic && !opt.out_given) opt.out = "BENCH_10.json";
  // Full traffic runs default to a paced open loop near service capacity so
  // the trajectory tracks latency under load, not shed-dominated collapse;
  // the smoke keeps the burst (period 0) so the overload path is exercised.
  if (opt.traffic && !opt.smoke && !period_given) opt.period_ms = 30.0;
  return opt;
}

/// Best-of-N wall time of `body` in milliseconds.
template <typename F>
double time_best_ms(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Defeat dead-code elimination without perturbing the measured loop.
volatile std::int64_t g_sink = 0;

struct KernelRow {
  std::string name;
  int size = 0;
  std::int64_t pixels = 0;
  double vector_ms = 0.0;
  double scalar_ms = 0.0;

  [[nodiscard]] double mpix_per_s(double ms) const {
    return ms > 0.0 ? static_cast<double>(pixels) / ms / 1e3 : 0.0;
  }
};

/// Run `body` once pinned to the vector dispatch and once pinned to the
/// scalar oracle, returning the pair of best-of timings.
template <typename F>
KernelRow bench_kernel(const std::string& name, int size, std::int64_t pixels, int reps,
                       F&& body) {
  KernelRow row;
  row.name = name;
  row.size = size;
  row.pixels = pixels;
  kern::force_scalar_kernels(false);
  row.vector_ms = time_best_ms(reps, body);
  kern::force_scalar_kernels(true);
  row.scalar_ms = time_best_ms(reps, body);
  kern::clear_kernel_override();
  std::cout << "  " << name << " @" << size << "^2: " << row.mpix_per_s(row.vector_ms)
            << " Mpix/s vector, " << row.mpix_per_s(row.scalar_ms) << " Mpix/s scalar ("
            << (row.scalar_ms > 0 ? row.scalar_ms / row.vector_ms : 0.0) << "x)\n";
  return row;
}

std::vector<KernelRow> run_kernel_benches(const PerfOptions& opt) {
  std::vector<KernelRow> rows;
  for (const int size : opt.sizes) {
    const img::Image base = pvr::random_subimage(size, size, 0.5, 42);
    const img::Image incoming = pvr::random_subimage(size, size, 0.5, 43);
    const img::Image sparse = pvr::random_subimage(size, size, opt.density, 44);
    const std::int64_t pixels = base.pixel_count();

    // Composite in place without resetting: the accumulator saturates after a
    // few reps but the instruction stream is identical every iteration, and a
    // reset copy inside the timed body would dominate the measurement.
    img::Image local = base;
    rows.push_back(bench_kernel("composite_rows", size, pixels, opt.reps, [&] {
      g_sink = g_sink + img::composite_region(local, incoming, local.bounds(), true);
    }));

    rows.push_back(bench_kernel("bounding_rect_scan", size, pixels, opt.reps, [&] {
      g_sink = g_sink + img::bounding_rect_of(sparse, sparse.bounds()).x1;
    }));

    const img::Rect rect = img::bounding_rect_of(sparse, sparse.bounds());
    rows.push_back(bench_kernel("rle_classify", size, std::max<std::int64_t>(1, rect.area()),
                                opt.reps, [&] {
                                  core::Counters counters;
                                  g_sink = g_sink + core::wire::encode_rect(sparse, rect, counters)
                                                        .non_blank_count();
                                }));
  }
  return rows;
}

struct MethodRow {
  std::string method;
  int ranks = 0;
  int size = 0;
  double wall_ms = 0.0;
  double scalar_wall_ms = 0.0;
  double t_comp_ms = 0.0;
  double t_comm_ms = 0.0;
  std::uint64_t m_max_bytes = 0;
  std::uint64_t received_bytes = 0;
  bool identical = false;
};

std::vector<MethodRow> run_method_benches(const PerfOptions& opt, bool& diverged) {
  std::vector<MethodRow> rows;
  const auto methods = pvr::MethodSet::paper_methods();
  for (const int size : opt.sizes) {
    for (const int ranks : opt.ranks) {
      const unsigned uranks = static_cast<unsigned>(ranks);
      if ((uranks & (uranks - 1)) != 0) {
        std::cerr << "slspvr-perf: --ranks entries must be powers of two (got " << ranks
                  << ")\n";
        std::exit(2);
      }
      const int levels = std::countr_zero(uranks);
      const auto subimages = pvr::make_subimages(ranks, size, size, opt.density);
      const auto order = core::make_uniform_order(levels);
      for (const auto& method : methods) {
        MethodRow row;
        row.method = std::string(method->name());
        row.ranks = ranks;
        row.size = size;

        kern::force_scalar_kernels(false);
        pvr::MethodResult vec = pvr::run_compositing(*method, subimages, order);
        row.wall_ms = time_best_ms(opt.reps, [&] {
          vec = pvr::run_compositing(*method, subimages, order);
        });
        kern::force_scalar_kernels(true);
        pvr::MethodResult sca = pvr::run_compositing(*method, subimages, order);
        row.scalar_wall_ms = time_best_ms(opt.reps, [&] {
          sca = pvr::run_compositing(*method, subimages, order);
        });
        kern::clear_kernel_override();

        row.t_comp_ms = vec.times.comp_ms;
        row.t_comm_ms = vec.times.comm_ms;
        row.m_max_bytes = vec.m_max;
        for (const auto bytes : vec.received_bytes_per_rank) row.received_bytes += bytes;
        row.identical = vec.final_image == sca.final_image;
        if (!row.identical) {
          diverged = true;
          std::cerr << "DIVERGENCE: " << row.method << " P=" << ranks << " " << size
                    << "^2 — scalar and vector kernels produced different frames\n";
        }
        std::cout << "  " << row.method << " P=" << ranks << " @" << size
                  << "^2: wall " << row.wall_ms << " ms (scalar " << row.scalar_wall_ms
                  << "), T_comp " << row.t_comp_ms << " ms, T_comm " << row.t_comm_ms
                  << " ms, M_max " << row.m_max_bytes << " B"
                  << (row.identical ? "" : "  [MISMATCH]") << "\n";
        rows.push_back(row);
      }
    }
  }
  return rows;
}

struct TrafficSessionRow {
  std::string name;
  std::string method;
  int image_size = 0;
  int ranks = 0;
  int completed = 0;
  int shed = 0;
  bool identical = true;  ///< every completed frame == the serial reference
};

struct TrafficResult {
  int sessions = 0;
  int frames_per_session = 0;
  double period_ms = 0.0;
  double elapsed_ms = 0.0;
  double frames_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::vector<TrafficSessionRow> rows;
};

/// Open-loop traffic over the FrameService: each session's arrivals fire on
/// a fixed schedule regardless of completion (period 0 = burst). Completed
/// frames are compared byte-for-byte against that session's serial
/// reference; the scheduler's shed-oldest policy absorbs the overload.
TrafficResult run_traffic_bench(const PerfOptions& opt, bool& diverged) {
  const std::vector<vol::DatasetKind> datasets = {
      vol::DatasetKind::Cube, vol::DatasetKind::Head, vol::DatasetKind::EngineLow,
      vol::DatasetKind::EngineHigh};

  std::vector<std::unique_ptr<core::Compositor>> methods;
  methods.push_back(std::make_unique<core::BsbrcCompositor>());
  methods.push_back(std::make_unique<core::BslcCompositor>());
  methods.push_back(std::make_unique<core::BinarySwapCompositor>());

  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = opt.smoke ? 2 : 3;
  service_config.queue_depth = 4;
  service_config.overload = pvr::OverloadPolicy::kShedOldest;
  pvr::FrameService service(service_config);

  TrafficResult out;
  out.sessions = opt.sessions;
  out.frames_per_session = opt.frames;
  out.period_ms = opt.period_ms;

  struct SessionState {
    int id = -1;
    pvr::FrameRequest request;
    img::Image reference;
    TrafficSessionRow row;
  };
  std::vector<SessionState> states;
  for (int s = 0; s < opt.sessions; ++s) {
    const core::Compositor& method = *methods[static_cast<std::size_t>(s) % methods.size()];
    pvr::SessionConfig config;
    config.name = "session-" + std::to_string(s);
    config.dataset = datasets[static_cast<std::size_t>(s) % datasets.size()];
    config.volume_scale = 0.2;
    config.image_size = opt.smoke ? 96 : 192;
    config.ranks = 4;

    SessionState state;
    state.id = service.add_session(config, method);
    state.request.rot_x_deg = 18.0f + 7.0f * static_cast<float>(s);
    state.request.rot_y_deg = 24.0f + 5.0f * static_cast<float>(s);
    state.row.name = config.name;
    state.row.method = std::string(method.name());
    state.row.image_size = config.image_size;
    state.row.ranks = config.ranks;

    // Serial reference: the same frame, composited alone.
    pvr::ExperimentConfig ec;
    ec.dataset = config.dataset;
    ec.volume_scale = config.volume_scale;
    ec.image_size = config.image_size;
    ec.ranks = config.ranks;
    ec.rot_x_deg = state.request.rot_x_deg;
    ec.rot_y_deg = state.request.rot_y_deg;
    const pvr::Experiment experiment(ec);
    state.reference = experiment.run(method).final_image;

    states.push_back(std::move(state));
  }

  // Open-loop arrivals: round f of every session fires at start + f*period.
  std::vector<std::vector<std::future<pvr::FrameResult>>> futures(states.size());
  const auto start = std::chrono::steady_clock::now();
  for (int f = 0; f < opt.frames; ++f) {
    if (opt.period_ms > 0.0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(opt.period_ms * f)));
    }
    for (SessionState& state : states) {
      auto future = service.submit(state.id, state.request);
      if (future) {
        futures[static_cast<std::size_t>(state.id)].push_back(std::move(*future));
      } else {
        ++out.rejected;
      }
    }
  }
  service.drain();
  out.elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  for (SessionState& state : states) {
    for (std::future<pvr::FrameResult>& future : futures[static_cast<std::size_t>(state.id)]) {
      pvr::FrameResult frame = future.get();
      if (frame.status == pvr::FrameStatus::kShed) {
        ++state.row.shed;
        continue;
      }
      ++state.row.completed;
      if (!(frame.image == state.reference)) {
        state.row.identical = false;
        diverged = true;
        std::cerr << "DIVERGENCE: " << state.row.name << " frame " << frame.id
                  << " differs from the serial reference\n";
      }
    }
  }

  const pvr::ServiceStats stats = service.stats();
  out.completed = stats.completed;
  out.shed = stats.shed;
  out.p50_ms = pvr::latency_percentile(stats.latencies_ms, 50.0);
  out.p99_ms = pvr::latency_percentile(stats.latencies_ms, 99.0);
  out.frames_per_sec =
      out.elapsed_ms > 0.0 ? static_cast<double>(stats.completed) / (out.elapsed_ms / 1e3) : 0.0;
  for (SessionState& state : states) out.rows.push_back(std::move(state.row));

  std::cout << "  sessions=" << out.sessions << " frames/session=" << out.frames_per_session
            << ": " << out.completed << " completed, " << out.shed << " shed, "
            << out.frames_per_sec << " frames/s, p50 " << out.p50_ms << " ms, p99 "
            << out.p99_ms << " ms\n";
  return out;
}

void write_traffic_json(const PerfOptions& opt, const TrafficResult& t, bool diverged) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": 10,\n";
  js << "  \"tool\": \"slspvr-perf\",\n";
  js << "  \"mode\": \"traffic\",\n";
  js << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n";
  js << "  \"isa\": \"" << kern::isa_name(kern::active_isa()) << "\",\n";
  js << "  \"sessions\": " << t.sessions << ",\n";
  js << "  \"frames_per_session\": " << t.frames_per_session << ",\n";
  js << "  \"period_ms\": " << t.period_ms << ",\n";
  js << "  \"elapsed_ms\": " << t.elapsed_ms << ",\n";
  js << "  \"completed\": " << t.completed << ",\n";
  js << "  \"shed\": " << t.shed << ",\n";
  js << "  \"rejected\": " << t.rejected << ",\n";
  js << "  \"frames_per_sec\": " << t.frames_per_sec << ",\n";
  js << "  \"p50_ms\": " << t.p50_ms << ",\n";
  js << "  \"p99_ms\": " << t.p99_ms << ",\n";
  js << "  \"identical\": " << (diverged ? "false" : "true") << ",\n";
  js << "  \"per_session\": [\n";
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    const TrafficSessionRow& r = t.rows[i];
    js << "    {\"name\": \"" << r.name << "\", \"method\": \"" << r.method
       << "\", \"image\": " << r.image_size << ", \"ranks\": " << r.ranks
       << ", \"completed\": " << r.completed << ", \"shed\": " << r.shed
       << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
       << (i + 1 < t.rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n";
  js << "}\n";

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "slspvr-perf: cannot write " << opt.out << "\n";
    std::exit(1);
  }
  out << js.str();
  std::cout << "wrote " << opt.out << "\n";
}

void write_json(const PerfOptions& opt, const std::vector<KernelRow>& kernels,
                const std::vector<MethodRow>& methods, bool diverged) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": 8,\n";
  js << "  \"tool\": \"slspvr-perf\",\n";
  js << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n";
  js << "  \"isa\": \"" << kern::isa_name(kern::active_isa()) << "\",\n";
  js << "  \"simd_compiled\": " << (kern::simd_compiled() ? "true" : "false") << ",\n";
  js << "  \"density\": " << opt.density << ",\n";
  js << "  \"scalar_vector_identical\": " << (diverged ? "false" : "true") << ",\n";
  js << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& k = kernels[i];
    js << "    {\"name\": \"" << k.name << "\", \"image\": " << k.size
       << ", \"pixels\": " << k.pixels << ", \"vector_ms\": " << k.vector_ms
       << ", \"scalar_ms\": " << k.scalar_ms
       << ", \"vector_mpix_per_s\": " << k.mpix_per_s(k.vector_ms)
       << ", \"scalar_mpix_per_s\": " << k.mpix_per_s(k.scalar_ms) << ", \"speedup\": "
       << (k.vector_ms > 0.0 ? k.scalar_ms / k.vector_ms : 0.0) << "}"
       << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"methods\": [\n";
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const MethodRow& m = methods[i];
    js << "    {\"method\": \"" << m.method << "\", \"ranks\": " << m.ranks
       << ", \"image\": " << m.size << ", \"wall_ms\": " << m.wall_ms
       << ", \"scalar_wall_ms\": " << m.scalar_wall_ms << ", \"t_comp_ms\": " << m.t_comp_ms
       << ", \"t_comm_ms\": " << m.t_comm_ms << ", \"m_max_bytes\": " << m.m_max_bytes
       << ", \"received_bytes\": " << m.received_bytes
       << ", \"identical\": " << (m.identical ? "true" : "false") << "}"
       << (i + 1 < methods.size() ? "," : "") << "\n";
  }
  js << "  ]\n";
  js << "}\n";

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "slspvr-perf: cannot write " << opt.out << "\n";
    std::exit(1);
  }
  out << js.str();
  std::cout << "wrote " << opt.out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const PerfOptions opt = parse_args(argc, argv);
  std::cout << "slspvr-perf: isa=" << kern::isa_name(kern::active_isa())
            << (opt.smoke ? " (smoke)" : "") << "\n";

  if (opt.traffic) {
    std::cout << "traffic:\n";
    bool diverged = false;
    const TrafficResult traffic = run_traffic_bench(opt, diverged);
    write_traffic_json(opt, traffic, diverged);
    if (diverged) {
      std::cerr << "slspvr-perf: FAIL — concurrent frame diverged from serial reference\n";
      return 1;
    }
    if (opt.p99_bound_ms > 0.0 && traffic.p99_ms > opt.p99_bound_ms) {
      std::cerr << "slspvr-perf: FAIL — p99 " << traffic.p99_ms << " ms exceeds bound "
                << opt.p99_bound_ms << " ms\n";
      return 1;
    }
    return 0;
  }

  std::cout << "kernels:\n";
  const auto kernels = run_kernel_benches(opt);

  std::cout << "methods:\n";
  bool diverged = false;
  const auto methods = run_method_benches(opt, diverged);

  write_json(opt, kernels, methods, diverged);
  if (diverged) {
    std::cerr << "slspvr-perf: FAIL — frame divergence detected\n";
    return 1;
  }
  return 0;
}
