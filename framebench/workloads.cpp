// The closed-loop frame workloads. Each one sets up (timed, repeated),
// runs the checker self-test, warms up, then times frames through the
// program's public entry points until the run length is used up, checking
// every frame it counts with the meter paused. With tracing on, the same
// loop records spans around the calls into each module and probes the
// layers outside the frame spans.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/bsbrc.hpp"
#include "core/bsbr.hpp"
#include "core/binary_swap.hpp"
#include "core/bslc.hpp"
#include "core/reference.hpp"
#include "oracle.hpp"
#include "pvr/experiment.hpp"
#include "pvr/frame_service.hpp"
#include "pvr/proc_runner.hpp"
#include "render/camera.hpp"
#include "render/raycast.hpp"
#include "volume/datasets.hpp"

namespace framebench {
namespace {

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
namespace render = slspvr::render;
namespace vol = slspvr::vol;

/// Set-ups per run (setup_s is their median). An orbit set-up is one
/// ~15 ms make_dataset, and the host's speed drifts over seconds: the
/// median of 21 set-ups (0.3 s) spread 0.15-0.21 between runs, of 201
/// (3 s) 0.03. Fewer where a set-up renders 768x768 views or cold service
/// frames.
constexpr int kSetupRepeats = 201;
constexpr int kServiceSetupRepeats = 5;
constexpr int kCompositeSetupRepeats = 3;
/// The run_compositing_sequence camera step (SequenceProcOptions defaults):
/// frame f of an orbit renders at (rot_x + 7f, rot_y + 11f) degrees.
constexpr float kStepX = 7.0f;
constexpr float kStepY = 11.0f;
/// Volume scale of the orbit workloads: at 0.5 a 256x256 frame renders in
/// ~0.1 s, so a run times over 100 frames individually.
constexpr double kOrbitScale = 0.5;
/// Bytes an over touches: two 16-byte pixels read, one written.
constexpr double kOverBytes = 48.0;

struct View {
  float rot_x = 0.0f;
  float rot_y = 0.0f;
};

std::mt19937_64 seeded_rng(std::uint64_t seed, std::uint64_t salt) {
  return std::mt19937_64(seed * 0x9E3779B97F4A7C15ULL ^ salt);
}

pvr::ExperimentConfig frame_config(int image_size, int ranks, View view) {
  pvr::ExperimentConfig cfg;
  cfg.image_size = image_size;
  cfg.ranks = ranks;
  cfg.rot_x_deg = view.rot_x;
  cfg.rot_y_deg = view.rot_y;
  return cfg;
}

View orbit_view(View start, std::int64_t frame) {
  return View{start.rot_x + kStepX * static_cast<float>(frame),
              start.rot_y + kStepY * static_cast<float>(frame)};
}

double seconds_since(Clock::time_point t0) { return ms_between(t0, Clock::now()) / 1e3; }

/// Time make_dataset and record it under the volume layer.
vol::Dataset timed_dataset(vol::DatasetKind kind, double scale, Layers& layers) {
  const auto t0 = Clock::now();
  vol::Dataset dataset = vol::make_dataset(kind, scale);
  layers.add("volume.make_dataset_ms", ms_between(t0, Clock::now()));
  return dataset;
}

/// Run `probe` in a forked child and return the number it computes
/// (nothing if the child fails). Call only while this process has one
/// thread.
template <typename Probe>
std::optional<double> in_child(const Probe& probe) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    int status = 1;
    try {
      const double value = probe();
      status = ::write(fds[1], &value, sizeof(value)) == sizeof(value) ? 0 : 1;
    } catch (...) {
    }
    ::_exit(status);
  }
  ::close(fds[1]);
  double value = 0.0;
  const bool got = pid > 0 && ::read(fds[0], &value, sizeof(value)) == sizeof(value);
  ::close(fds[0]);
  if (pid > 0) ::waitpid(pid, nullptr, 0);
  return got ? std::optional<double>(value) : std::nullopt;
}

/// Set-up of the orbit workloads: the volume, made kSetupRepeats times
/// (each timed into `setup_s`), the last one kept.
vol::Dataset set_up_dataset(vol::DatasetKind kind, double scale, Layers& layers,
                            std::vector<double>& setup_s) {
  std::optional<vol::Dataset> dataset;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dataset.reset();
    const auto t0 = Clock::now();
    dataset.emplace(timed_dataset(kind, scale, layers));
    setup_s.push_back(seconds_since(t0));
  }
  return std::move(*dataset);
}

/// Does `frame` match the benchmark's own over-composite of e's subimages?
bool matches_own_over(const img::Image& frame, const pvr::Experiment& e) {
  return matches_over(frame, e.subimages(), e.order().front_to_back);
}

/// Core-layer figures of one compositing call that took `call_ms`.
void add_core_layers(Layers& layers, const pvr::MethodResult& r, double call_ms) {
  core::OpTotals sum;
  for (const core::Counters& c : r.per_rank) {
    sum.over_ops += c.over_ops;
    sum.encoded_pixels += c.encoded_pixels;
    sum.rect_scanned += c.rect_scanned;
    sum.codes_emitted += c.codes_emitted;
    sum.pixels_sent += c.pixels_sent;
  }
  std::uint64_t received = 0;
  for (const std::uint64_t b : r.received_bytes_per_rank) received += b;
  if (call_ms > 0.0) {
    layers.add("core.composite_ms", call_ms);
    layers.add("core.composite_ms." + r.method, call_ms);
    layers.add("core.spmd_ms", r.wall_ms);
    layers.add("core.post_ms", call_ms - r.wall_ms);
  }
  layers.add("core.over_ops", static_cast<double>(sum.over_ops));
  layers.add("core.encoded_pixels", static_cast<double>(sum.encoded_pixels));
  layers.add("core.rect_scanned", static_cast<double>(sum.rect_scanned));
  layers.add("core.codes_emitted", static_cast<double>(sum.codes_emitted));
  layers.add("core.pixels_sent", static_cast<double>(sum.pixels_sent));
  layers.add("core.m_max_bytes", static_cast<double>(r.m_max));
  layers.add("core.received_bytes", static_cast<double>(received));
  layers.add("core.model_comp_ms", r.times.comp_ms);
  layers.add("core.model_comm_ms", r.times.comm_ms);
  layers.add("image.over_bytes_computed", static_cast<double>(sum.over_ops) * kOverBytes);
}

/// Render-layer probe: each brick of the view rendered on its own with
/// RenderStats, outside any frame span.
void probe_render(Layers& layers, Trace& trace, const vol::Dataset& dataset,
                  const pvr::ExperimentConfig& cfg, const std::vector<vol::Brick>& bricks) {
  render::OrthoCamera camera(dataset.volume.dims(), cfg.image_size, cfg.image_size,
                             cfg.rot_x_deg, cfg.rot_y_deg);
  render::RaycastOptions options;
  options.step = cfg.step;
  double sum_ms = 0.0;
  double max_ms = 0.0;
  render::RenderStats total;
  for (const vol::Brick& brick : bricks) {
    img::Image sub(cfg.image_size, cfg.image_size);
    render::RenderStats stats;
    const double t0 = trace.now_us();
    render::render_brick(dataset.volume, dataset.tf, camera, brick, sub, options, &stats);
    const double ms = trace.close("render.render_brick", "probe", -1, t0,
                                  {{"samples", static_cast<double>(stats.samples)}});
    sum_ms += ms;
    max_ms = std::max(max_ms, ms);
    total.rays += stats.rays;
    total.samples += stats.samples;
  }
  layers.add("render.brick_ms_sum", sum_ms);
  layers.add("render.brick_ms_max", max_ms);
  layers.add("render.rays", static_cast<double>(total.rays));
  layers.add("render.samples", static_cast<double>(total.samples));
  if (total.samples > 0) {
    layers.add("render.ns_per_sample", sum_ms * 1e6 / static_cast<double>(total.samples));
  }
}

/// Core-layer probe: the single-thread serial composite of the same subimages.
void probe_reference(Layers& layers, Trace& trace, const pvr::Experiment& e) {
  const double t0 = trace.now_us();
  const img::Image ref = core::composite_reference(e.subimages(), e.order().front_to_back);
  layers.add("core.reference_ms", trace.close("core.composite_reference", "probe", -1, t0));
}

/// The figures every workload reports. `frames` counts completed frames;
/// `frame_ms` holds one sample per individually timed operation;
/// `peak_rss` is peak_rss_mib() read as the timed loop ended, before the
/// checks that allocate frames of their own (self-test, render oracle).
void end_to_end_metrics(RunResult& out, const std::vector<double>& frame_ms, double frames,
                        const Meter& meter, const std::vector<double>& setup_s,
                        double peak_rss) {
  const Usage& u = meter.usage();
  out.metrics = {
      {"frame_ms_p50", percentile(frame_ms, 50), "ms"},
      {"frame_ms_p90", percentile(frame_ms, 90), "ms"},
      {"frames_per_s", frames / (meter.wall_ms() / 1e3), "1/s"},
      {"cpu_ms_per_frame", (u.user_ms + u.sys_ms) / frames, "ms"},
      {"peak_rss_mb", peak_rss, "MiB"},
      {"setup_s", median(setup_s), "s"},
  };
  out.notes.push_back("timed " + std::to_string(static_cast<long long>(frames)) + " frames (" +
                      std::to_string(frame_ms.size()) + " timed operations) in " +
                      std::to_string(meter.wall_ms() / 1e3) + " s");
}

/// Process-layer figures of the timed loop, per frame.
void add_proc_layers(Layers& layers, const Meter& meter, double frames) {
  const Usage& u = meter.usage();
  layers.set("proc.minflt", u.minflt / frames);
  layers.set("proc.sys_ms", u.sys_ms / frames);
  layers.set("proc.nvcsw", u.nvcsw / frames);
  layers.set("proc.nivcsw", u.nivcsw / frames);
}

/// Traced-run epilogue: per-layer metrics, trace file, overhead base.
void finish_traced(RunResult& out, Layers& layers, const Trace& trace,
                   const std::vector<double>& frame_ms, const Options& opts) {
  layers.set("trace.frame_ms_p50", percentile(frame_ms, 50));
  out.metrics = layers.metrics();
  const std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".trace.json";
  if (trace.write_chrome_json(path)) {
    out.notes.push_back("trace: " + path + " (" + std::to_string(trace.spans().size()) +
                        " spans)");
  } else {
    out.notes.push_back("trace: could not write " + path);
  }
}

/// Checker self-test on the workload's own dataset, size and method, at a
/// fixed view (the default off-axis one): its bricks overlap on screen, so
/// a reversed depth order really is a bad frame, and the inputs do not
/// depend on the seed. It builds bad frames of its own, so workloads run it
/// after the timed loop, once peak RSS has been read.
void self_test(RunResult& out, const vol::Dataset& dataset, int image_size, int ranks,
               const core::Compositor& method) {
  const pvr::Experiment e(dataset, frame_config(image_size, ranks, View{18.0f, 24.0f}));
  const std::string why =
      checker_self_test(e.run(method).final_image, e.subimages(), e.order().front_to_back);
  if (why.empty()) {
    out.notes.push_back("checker self-test: 3 of 3 bad frames counted failed");
  } else {
    out.correct = false;
    out.notes.push_back("checker self-test FAILED: " + why);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// composite-768: Experiment::run over pre-rendered subimages, the four paper
// methods in round-robin over a few seeded views.

RunResult run_composite_768(const Options& opts) {
  constexpr int kImage = 768;
  constexpr int kRanks = 4;
  constexpr int kViews = 3;
  constexpr int kWarmupRounds = 16;
  // Subimage sparsity does not depend on the volume scale (the camera fits
  // the volume to the view); 0.5 halves the set-up's make_dataset.
  constexpr double kScale = 0.5;
  RunResult out;
  Trace trace(opts.trace);
  Layers layers;

  auto rng = seeded_rng(opts.seed, 768);
  std::uniform_real_distribution<float> phase(0.0f, 360.0f);
  std::uniform_real_distribution<float> tilt(8.0f, 28.0f);
  const float y0 = phase(rng);
  std::vector<View> views;
  for (int v = 0; v < kViews; ++v) {
    views.push_back({tilt(rng), y0 + 120.0f * static_cast<float>(v)});
  }
  const auto methods = pvr::MethodSet::paper_methods();  // BS, BSBR, BSLC, BSBRC

  if (trace.enabled()) {
    // Page faults per frame at 384x384, for comparison with the 768x768
    // loop: the same warm-up, then as many metered rounds. It runs in a
    // forked child because the allocator's state (and so the fault count)
    // depends on the sizes a process has freed before.
    const std::optional<double> faults = in_child([&] {
      const pvr::Experiment small(vol::make_dataset(vol::DatasetKind::EngineLow, kScale),
                                  frame_config(384, kRanks, views[0]));
      Meter probe;
      for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1) probe.resume();
        for (int round = 0; round < kWarmupRounds; ++round) {
          for (const auto& m : methods) (void)small.run(*m);
        }
      }
      probe.pause();
      return probe.usage().minflt / static_cast<double>(kWarmupRounds * methods.size());
    });
    if (faults) layers.set("proc.minflt.384", *faults);
  }

  struct State {
    vol::Dataset dataset;
    std::vector<std::unique_ptr<pvr::Experiment>> experiments;
  };
  std::unique_ptr<State> state;
  std::vector<double> setup_s;
  for (int i = 0; i < kCompositeSetupRepeats; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    auto s = std::make_unique<State>(
        State{timed_dataset(vol::DatasetKind::EngineLow, kScale, layers), {}});
    for (const View& view : views) {
      s->experiments.push_back(
          std::make_unique<pvr::Experiment>(s->dataset, frame_config(kImage, kRanks, view)));
    }
    setup_s.push_back(seconds_since(t0));
    state = std::move(s);
  }

  // Warm-up: untimed rounds until the allocator's heap has grown to the
  // frame's working set (the first seconds of a run are slower).
  for (int round = 0; round < kWarmupRounds; ++round) {
    for (const auto& e : state->experiments) {
      for (const auto& m : methods) (void)e->run(*m);
    }
  }

  struct Record {
    int view;
    int method;
    bool ok;
  };
  std::vector<Record> records;
  std::vector<double> frame_ms;
  std::map<std::pair<int, int>, std::uint64_t> m_max;
  Meter meter;
  meter.resume();
  do {
    for (int v = 0; v < kViews; ++v) {
      for (int m = 0; m < static_cast<int>(methods.size()); ++m) {
        const auto id = static_cast<std::int64_t>(records.size());
        const pvr::Experiment& e = *state->experiments[static_cast<std::size_t>(v)];
        const double t0 = trace.now_us();
        std::optional<pvr::MethodResult> r;
        try {
          r = e.run(*methods[static_cast<std::size_t>(m)]);
        } catch (const std::exception& ex) {
          out.notes.push_back(std::string("frame threw: ") + ex.what());
        }
        if (r) trace.close("core.Experiment::run", "core", id, t0, {{"spmd_ms", r->wall_ms}});
        const double ms = trace.close("frame", "bench", id, t0, {{"view", v}, {"method", m}});
        frame_ms.push_back(ms);
        meter.pause();
        bool ok = r.has_value() && matches_own_over(r->final_image, e);
        if (r) {
          const auto [it, fresh] = m_max.emplace(std::make_pair(v, m), r->m_max);
          ok = ok && (fresh || it->second == r->m_max);
          if (trace.enabled()) add_core_layers(layers, *r, ms);
        }
        records.push_back({v, m, ok});
        meter.resume();
      }
    }
  } while (meter.running_ms() < opts.seconds * 1e3);
  meter.pause();
  const double peak_rss = peak_rss_mib();
  self_test(out, state->dataset, kImage, kRanks, *methods[3]);

  // Message-size properties per view, and the render oracle on one view
  // (its BSBRC frame made again: frames are deterministic in their view).
  int bsbrc_below_bslc = 0;
  std::vector<bool> view_ok(kViews, true);
  for (int v = 0; v < kViews; ++v) {
    const MessageSizes ms{m_max[{v, 0}], m_max[{v, 1}], m_max[{v, 2}], m_max[{v, 3}]};
    const std::string why = message_size_violation(ms, kImage, kRanks);
    if (!why.empty()) {
      view_ok[static_cast<std::size_t>(v)] = false;
      out.notes.push_back("view " + std::to_string(v) + ": " + why);
    }
    if (ms.bsbrc < ms.bslc) ++bsbrc_below_bslc;
  }
  out.notes.push_back("views with M_BSBRC < M_BSLC (not asserted): " +
                      std::to_string(bsbrc_below_bslc) + " of " + std::to_string(kViews));
  const int check_view = static_cast<int>(opts.seed % kViews);
  const pvr::Experiment& checked = *state->experiments[static_cast<std::size_t>(check_view)];
  const RenderCheck rc = check_against_full_render(checked.run(*methods[3]).final_image,
                                                   state->dataset, checked.config());
  out.notes.push_back("render oracle on view " + std::to_string(check_view) + ": max-abs " +
                      number(rc.diff) + (rc.ok() ? " <= " : " > ") + number(rc.bound));
  if (!rc.ok()) view_ok[static_cast<std::size_t>(check_view)] = false;

  out.attempted = static_cast<std::int64_t>(records.size());
  for (const Record& rec : records) {
    if (!rec.ok || !view_ok[static_cast<std::size_t>(rec.view)]) ++out.failed;
  }
  const auto frames = static_cast<double>(records.size());
  if (!trace.enabled()) {
    end_to_end_metrics(out, frame_ms, frames, meter, setup_s, peak_rss);
    return out;
  }
  add_proc_layers(layers, meter, frames);
  for (std::size_t v = 0; v < views.size(); ++v) {
    const pvr::Experiment& e = *state->experiments[v];
    probe_render(layers, trace, state->dataset, e.config(), e.bricks());
    probe_reference(layers, trace, e);
  }
  finish_traced(out, layers, trace, frame_ms, opts);
  return out;
}

// ---------------------------------------------------------------------------
// orbit-render and orbit-dense: Experiment(dataset, view) then run(method),
// the camera stepping every frame and frame f using methods[f % size].

namespace {

RunResult run_orbit(const Options& opts, vol::DatasetKind kind,
                    const std::vector<const core::Compositor*>& methods) {
  constexpr int kImage = 256;
  constexpr int kRanks = 4;
  constexpr int kRenderCheckEvery = 8;
  RunResult out;
  Trace trace(opts.trace);
  Layers layers;

  auto rng = seeded_rng(opts.seed, 256 + static_cast<std::uint64_t>(kind));
  std::uniform_real_distribution<float> angle(0.0f, 360.0f);
  const View start{angle(rng), angle(rng)};
  const auto render_check_phase = static_cast<std::int64_t>(rng() % kRenderCheckEvery);
  const auto rounds = static_cast<std::int64_t>(methods.size());

  std::vector<double> setup_s;
  const vol::Dataset dataset = set_up_dataset(kind, kOrbitScale, layers, setup_s);

  // Warm-up: two untimed frames before the orbit start.
  for (std::int64_t f = -2; f < 0; ++f) {
    const pvr::Experiment e(dataset, frame_config(kImage, kRanks, orbit_view(start, f)));
    (void)e.run(*methods.back());
  }

  std::vector<double> frame_ms;
  std::int64_t frames = 0;
  std::int64_t render_checked = 0;
  RenderCheck render_worst;
  Meter meter;
  meter.resume();
  do {
    const std::int64_t f = frames++;
    const pvr::ExperimentConfig cfg = frame_config(kImage, kRanks, orbit_view(start, f));
    const double t0 = trace.now_us();
    bool ok = true;
    std::optional<pvr::Experiment> e;
    std::optional<pvr::MethodResult> r;
    double run_ms = 0.0;
    try {
      e.emplace(dataset, cfg);
      const double t_run = trace.now_us();
      trace.close("pvr.Experiment (partition+render)", "render", f, t0);
      r = e->run(*methods[static_cast<std::size_t>(f % rounds)]);
      run_ms = trace.close("core.Experiment::run", "core", f, t_run);
    } catch (const std::exception& ex) {
      ok = false;
      out.notes.push_back(std::string("frame threw: ") + ex.what());
    }
    frame_ms.push_back(trace.close("frame", "bench", f, t0));
    meter.pause();
    if (ok) {
      ok = matches_own_over(r->final_image, *e);
      if (r->method == "BS") {
        // M_BS = (1 - 1/P)·N²·16 exactly; the relations between methods
        // need one view under all four and are checked in composite-768.
        ok = ok && message_size_violation({r->m_max, 0, 0, 0}, kImage, kRanks).empty();
      }
      if (trace.enabled()) {
        add_core_layers(layers, *r, run_ms);
        probe_render(layers, trace, dataset, cfg, e->bricks());
        probe_reference(layers, trace, *e);
      }
      if (f % kRenderCheckEvery == render_check_phase) {
        // The frame's Experiment and result are released first, so the
        // full render's image does not raise the process's peak RSS.
        const img::Image frame = std::move(r->final_image);
        r.reset();
        e.reset();
        const RenderCheck rc = check_against_full_render(frame, dataset, cfg);
        ok = ok && rc.ok();
        ++render_checked;
        render_worst = std::max(render_worst, rc);
      }
    }
    if (!ok) ++out.failed;
    meter.resume();
  } while (frames % rounds != 0 || meter.running_ms() < opts.seconds * 1e3);
  meter.pause();
  const double peak_rss = peak_rss_mib();
  self_test(out, dataset, kImage, kRanks, *methods.back());

  out.attempted = frames;
  out.notes.push_back("render oracle on " + std::to_string(render_checked) +
                      " frames: worst max-abs " + number(render_worst.diff) +
                      (render_worst.ok() ? " <= " : " > ") + number(render_worst.bound));
  if (!trace.enabled()) {
    end_to_end_metrics(out, frame_ms, static_cast<double>(frames), meter, setup_s, peak_rss);
    return out;
  }
  add_proc_layers(layers, meter, static_cast<double>(frames));
  finish_traced(out, layers, trace, frame_ms, opts);
  return out;
}

}  // namespace

RunResult run_orbit_render(const Options& opts) {
  const core::BsbrcCompositor bsbrc;
  return run_orbit(opts, vol::DatasetKind::EngineHigh, {&bsbrc});
}

RunResult run_orbit_dense(const Options& opts) {
  const auto methods = pvr::MethodSet::paper_methods();  // BS, BSBR, BSLC, BSBRC
  std::vector<const core::Compositor*> order;
  for (const auto& m : methods) order.push_back(m.get());
  return run_orbit(opts, vol::DatasetKind::EngineLow, order);
}

// ---------------------------------------------------------------------------
// service-mix: pvr::FrameService with four sessions, one closed-loop client
// thread per session keeping one request outstanding.

namespace {

struct SessionSpec {
  vol::DatasetKind dataset;
  const core::Compositor* method;
};

struct ServiceFrame {
  double t0_us = 0.0;
  double t1_us = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::int64_t k = 0;
  bool ok = true;
};

/// One client's frames plus the hash every frame of a camera period must
/// repeat (a session's frames are deterministic in its camera).
struct ClientLog {
  std::vector<ServiceFrame> frames;
  std::vector<std::optional<std::uint64_t>> period_hash;
  bool warmup_ok = true;
};

}  // namespace

RunResult run_service_mix(const Options& opts) {
  constexpr int kImage = 192;
  constexpr int kRanks = 2;
  constexpr double kScale = 0.5;
  constexpr std::int64_t kCameraPeriod = 64;
  constexpr std::int64_t kWarmupFrames = 16;
  RunResult out;
  Trace trace(opts.trace);
  Layers layers;

  const core::BsbrcCompositor bsbrc;
  const core::BslcCompositor bslc;
  const core::BinarySwapCompositor bs;
  const core::BsbrCompositor bsbr;
  const std::vector<SessionSpec> specs = {{vol::DatasetKind::EngineLow, &bsbrc},
                                          {vol::DatasetKind::Head, &bslc},
                                          {vol::DatasetKind::Cube, &bs},
                                          {vol::DatasetKind::EngineHigh, &bsbr}};
  const auto sessions = static_cast<int>(specs.size());
  auto rng = seeded_rng(opts.seed, 192);
  std::uniform_real_distribution<float> angle(0.0f, 360.0f);
  std::vector<View> starts;
  for (int s = 0; s < sessions; ++s) starts.push_back({angle(rng), angle(rng)});
  const auto session_view = [&](int s, std::int64_t k) {
    return orbit_view(starts[static_cast<std::size_t>(s)], k / kCameraPeriod);
  };

  std::vector<ClientLog> logs(static_cast<std::size_t>(sessions));
  std::atomic<bool> stop{false};
  const auto client = [&](pvr::FrameService& service, int s, std::int64_t k_begin,
                          std::int64_t k_end, bool timed) {
    ClientLog& log = logs[static_cast<std::size_t>(s)];
    for (std::int64_t k = k_begin; k < k_end && !stop.load(); ++k) {
      pvr::FrameRequest request;
      const View view = session_view(s, k);
      request.rot_x_deg = view.rot_x;
      request.rot_y_deg = view.rot_y;
      ServiceFrame frame;
      frame.k = k;
      frame.t0_us = trace.now_us();
      auto future = service.submit(s, request);
      if (future) {
        const pvr::FrameResult r = future->get();
        frame.t1_us = trace.now_us();
        frame.queue_ms = r.queue_ms;
        frame.run_ms = r.run_ms;
        frame.ok = r.status == pvr::FrameStatus::kDone && !r.report.faulted &&
                   r.image.width() == kImage && r.image.height() == kImage;
        const auto period = static_cast<std::size_t>(k / kCameraPeriod);
        if (log.period_hash.size() <= period) log.period_hash.resize(period + 1);
        const std::uint64_t h = frame_hash(r.image);
        if (!log.period_hash[period]) log.period_hash[period] = h;
        frame.ok = frame.ok && *log.period_hash[period] == h;
      } else {
        frame.t1_us = trace.now_us();
        frame.ok = false;  // rejected at admission
      }
      if (timed) {
        log.frames.push_back(frame);
      } else if (!frame.ok) {
        log.warmup_ok = false;
      }
    }
  };

  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = 2;
  const auto session_config = [&](int s) {
    pvr::SessionConfig c;
    c.name = vol::dataset_name(specs[static_cast<std::size_t>(s)].dataset);
    c.dataset = specs[static_cast<std::size_t>(s)].dataset;
    c.volume_scale = kScale;
    c.image_size = kImage;
    c.ranks = kRanks;
    return c;
  };

  // Set-up: the service, its sessions, and one cold (rendering) frame each.
  std::unique_ptr<pvr::FrameService> service;
  std::vector<double> setup_s;
  for (int i = 0; i < kServiceSetupRepeats; ++i) {
    service.reset();
    for (ClientLog& log : logs) log = ClientLog{};
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<pvr::FrameService>(service_config);
    for (int s = 0; s < sessions; ++s) {
      (void)fresh->add_session(session_config(s), *specs[static_cast<std::size_t>(s)].method);
    }
    for (int s = 0; s < sessions; ++s) client(*fresh, s, 0, 1, false);
    setup_s.push_back(seconds_since(t0));
    service = std::move(fresh);
  }

  // Warm-up, then the timed closed loop.
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; ++s) {
      threads.emplace_back(client, std::ref(*service), s, 1, 1 + kWarmupFrames, false);
    }
    for (std::thread& t : threads) t.join();
  }
  Meter meter;
  meter.resume();
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; ++s) {
      threads.emplace_back(client, std::ref(*service), s, 1 + kWarmupFrames,
                           std::numeric_limits<std::int64_t>::max(), true);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(opts.seconds));
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }
  meter.pause();
  const double peak_rss = peak_rss_mib();
  const pvr::ServiceStats stats = service->stats();
  double scratch_bytes = 0.0;
  for (int s = 0; s < sessions; ++s) {
    scratch_bytes += static_cast<double>(service->session_scratch_bytes(s));
  }
  service.reset();

  if (stats.shed != 0 || stats.rejected != 0) {
    out.notes.push_back("service shed " + std::to_string(stats.shed) + " and rejected " +
                        std::to_string(stats.rejected) + " frame(s)");
  }
  // Independent oracle for every camera period each session reached: the
  // thread-backend frame of the same view must hash-equal the period's
  // frames, and match the benchmark's own over of its subimages.
  std::int64_t periods_checked = 0;
  for (int s = 0; s < sessions; ++s) {
    ClientLog& log = logs[static_cast<std::size_t>(s)];
    if (!log.warmup_ok) {
      out.correct = false;
      out.notes.push_back("session " + std::to_string(s) + ": a warm-up frame failed");
    }
    const SessionSpec& spec = specs[static_cast<std::size_t>(s)];
    const vol::Dataset dataset = vol::make_dataset(spec.dataset, kScale);
    if (s == 0) self_test(out, dataset, kImage, kRanks, *spec.method);
    std::vector<bool> period_ok(log.period_hash.size(), true);
    for (std::size_t p = 0; p < log.period_hash.size(); ++p) {
      if (!log.period_hash[p]) continue;
      const View view = session_view(s, static_cast<std::int64_t>(p) * kCameraPeriod);
      const pvr::Experiment e(dataset, frame_config(kImage, kRanks, view));
      const pvr::MethodResult r = e.run(*spec.method);
      period_ok[p] = frame_hash(r.final_image) == *log.period_hash[p] &&
                     matches_own_over(r.final_image, e);
      if (trace.enabled() && p == 0) {
        const auto t0 = trace.now_us();
        const pvr::MethodResult timed = e.run(*spec.method);
        add_core_layers(layers, timed, trace.close("core.Experiment::run", "probe", -1, t0));
        probe_render(layers, trace, dataset, e.config(), e.bricks());
        probe_reference(layers, trace, e);
        (void)timed_dataset(spec.dataset, kScale, layers);
      }
      ++periods_checked;
    }
    for (ServiceFrame& f : log.frames) {
      f.ok = f.ok && period_ok[static_cast<std::size_t>(f.k / kCameraPeriod)];
    }
  }
  out.notes.push_back("thread-backend oracle checked " + std::to_string(periods_checked) +
                      " camera periods");

  std::vector<double> frame_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> cold_run_ms;
  for (int s = 0; s < sessions; ++s) {
    for (const ServiceFrame& f : logs[static_cast<std::size_t>(s)].frames) {
      ++out.attempted;
      if (!f.ok) ++out.failed;
      frame_ms.push_back((f.t1_us - f.t0_us) / 1e3);
      queue_ms.push_back(f.queue_ms);
      run_ms.push_back(f.run_ms);
      if (f.k % kCameraPeriod == 0) cold_run_ms.push_back(f.run_ms);
      if (trace.enabled()) {
        trace.add({"frame", "bench", f.k, f.t0_us, f.t1_us, {{"session", s}}, s});
        trace.add({"pvr.queue", "pvr", f.k, f.t0_us, f.t0_us + f.queue_ms * 1e3, {}, s});
        trace.add({"pvr.run", "pvr", f.k, f.t0_us + f.queue_ms * 1e3,
                   f.t0_us + (f.queue_ms + f.run_ms) * 1e3, {}, s});
      }
    }
  }
  // Stats counters fold in the set-up and warm-up frames; a shed or
  // rejected frame anywhere is a failed operation of this run.
  out.failed += static_cast<std::int64_t>(stats.shed + stats.rejected);
  const auto frames = static_cast<double>(out.attempted);
  if (!trace.enabled()) {
    end_to_end_metrics(out, frame_ms, frames, meter, setup_s, peak_rss);
    return out;
  }
  add_proc_layers(layers, meter, frames);
  layers.set("pvr.queue_ms_p50", percentile(queue_ms, 50));
  layers.set("pvr.run_ms_p50", percentile(run_ms, 50));
  layers.set("pvr.cold_run_ms_p50", percentile(cold_run_ms, 50));
  layers.set("pvr.scratch_bytes", scratch_bytes);
  finish_traced(out, layers, trace, frame_ms, opts);
  return out;
}

// ---------------------------------------------------------------------------
// procs-orbit: clips of kClip frames through run_compositing_sequence, with
// P worker processes over unix sockets; the orbit continues across clips.

RunResult run_procs_orbit(const Options& opts) {
  constexpr int kImage = 256;
  constexpr int kRanks = 4;
  constexpr int kClip = 4;
  RunResult out;
  Trace trace(opts.trace);
  Layers layers;

  auto rng = seeded_rng(opts.seed, 4);
  std::uniform_real_distribution<float> angle(0.0f, 360.0f);
  const View start{angle(rng), angle(rng)};
  const core::BsbrcCompositor method;

  std::vector<double> setup_s;
  const vol::Dataset dataset =
      set_up_dataset(vol::DatasetKind::EngineHigh, kOrbitScale, layers, setup_s);

  int endpoints = 0;
  const auto run_clip = [&](std::int64_t first_frame, int frames) {
    pvr::SequenceProcOptions sopts;
    sopts.frames = frames;
    sopts.rot_step_x = kStepX;
    sopts.rot_step_y = kStepY;
    sopts.proc.endpoint_override = "unix:" + opts.work_dir + "/fb-" + std::to_string(::getpid()) +
                                   "-" + std::to_string(endpoints++) + ".sock";
    return pvr::run_compositing_sequence(
        method, dataset, frame_config(kImage, kRanks, orbit_view(start, first_frame)), sopts);
  };
  // A clip is clean when every frame composited at full strength and no
  // worker died, was respawned or sent stale traffic.
  const auto clean = [](const pvr::SequenceRunResult& r, std::size_t j) {
    const pvr::FaultReport& f = r.frames[j].report;
    const img::Image& image = r.frames[j].result.final_image;
    return !f.faulted && !f.degraded && !f.resumed && image.width() == kImage &&
           image.height() == kImage;
  };
  // Frame i of the clip starting at orbit frame `first`, its view stepped
  // from the clip's start exactly as run_compositing_sequence steps it.
  const auto thread_frame_ok = [&](const img::Image& frame, std::int64_t first,
                                   std::int64_t i, std::optional<pvr::Experiment>& e) {
    e.emplace(dataset, frame_config(kImage, kRanks, orbit_view(orbit_view(start, first), i)));
    const img::Image thread = e->run(method).final_image;
    return thread == frame && matches_own_over(thread, *e);
  };

  // Warm-up: one untimed clip before the orbit start, its first frame
  // checked like a timed one.
  {
    const pvr::SequenceRunResult warm = run_clip(-kClip, kClip);
    std::optional<pvr::Experiment> e;
    if (warm.frames.size() != static_cast<std::size_t>(kClip) || !clean(warm, 0) ||
        !thread_frame_ok(warm.frames[0].result.final_image, -kClip, 0, e)) {
      out.correct = false;
      out.notes.push_back("warm-up clip failed its checks");
    }
  }

  std::vector<double> frame_ms;
  std::vector<double> clip_ms;
  std::int64_t clips = 0;
  Meter meter;
  meter.resume();
  do {
    const std::int64_t c = clips++;
    const std::int64_t first = c * kClip;
    const double t0 = trace.now_us();
    std::optional<pvr::SequenceRunResult> r;
    try {
      r = run_clip(first, kClip);
    } catch (const std::exception& ex) {
      out.notes.push_back(std::string("clip threw: ") + ex.what());
    }
    trace.close("pvr.run_compositing_sequence", "mp", c, t0, {{"frames", kClip}});
    const double ms = trace.close("clip", "bench", c, t0);
    clip_ms.push_back(ms);
    frame_ms.push_back(ms / kClip);
    meter.pause();
    out.attempted += kClip;
    const bool complete = r && r->frames.size() == static_cast<std::size_t>(kClip) &&
                          r->report.respawns == 0 && !r->report.faulted &&
                          r->report.stale_rejects == 0;
    if (!complete) {
      out.failed += kClip;
    } else {
      // Every frame must be clean; one seeded frame per clip is also
      // compared byte for byte with the thread backend's frame.
      const auto j = static_cast<std::size_t>(rng() % kClip);
      std::optional<pvr::Experiment> e;
      for (std::size_t i = 0; i < static_cast<std::size_t>(kClip); ++i) {
        bool ok = clean(*r, i);
        if (i == j) {
          ok = ok && thread_frame_ok(r->frames[i].result.final_image, first,
                                     static_cast<std::int64_t>(i), e);
        }
        if (!ok) ++out.failed;
        if (trace.enabled()) {
          add_core_layers(layers, r->frames[i].result, 0.0);
          layers.add("mp.procs_spmd_ms", r->frames[i].result.wall_ms);
        }
      }
      if (trace.enabled() && e) probe_render(layers, trace, dataset, e->config(), e->bricks());
    }
    meter.resume();
  } while (meter.running_ms() < opts.seconds * 1e3);
  meter.pause();
  const double peak_rss = peak_rss_mib();
  self_test(out, dataset, kImage, kRanks, method);

  const auto frames = static_cast<double>(out.attempted);
  if (!trace.enabled()) {
    end_to_end_metrics(out, frame_ms, frames, meter, setup_s, peak_rss);
    return out;
  }
  add_proc_layers(layers, meter, frames);
  // Worker start-up: a one-frame clip minus one steady frame, the steady
  // frame being the difference between a full clip and a one-frame clip
  // spread over the extra frames.
  std::vector<double> one_frame;
  for (int i = 0; i < 3; ++i) {
    const double t0 = trace.now_us();
    (void)run_clip(0, 1);
    one_frame.push_back(
        trace.close("pvr.run_compositing_sequence", "probe", -1, t0, {{"frames", 1}}));
  }
  const double steady = (median(clip_ms) - median(one_frame)) / (kClip - 1);
  layers.set("mp.procs_startup_ms", median(one_frame) - steady);
  finish_traced(out, layers, trace, frame_ms, opts);
  return out;
}

}  // namespace framebench
