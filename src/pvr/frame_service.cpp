#include "pvr/frame_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace slspvr::pvr {

namespace {

double ms_since(std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

double latency_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp<double>(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[index];
}

FrameService::FrameService(const FrameServiceConfig& config) : config_(config) {
  if (config_.max_in_flight < 1) {
    throw std::invalid_argument("FrameService: max_in_flight must be >= 1");
  }
  if (config_.queue_depth < 1) {
    throw std::invalid_argument("FrameService: queue_depth must be >= 1");
  }
  executors_.reserve(static_cast<std::size_t>(config_.max_in_flight));
  for (int i = 0; i < config_.max_in_flight; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

FrameService::~FrameService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Resolve (as shed) everything still pending so no client future is
    // left with a broken promise; in-flight frames finish normally.
    for (const std::unique_ptr<Session>& session : sessions_) {
      while (!session->queue.empty()) {
        Pending pending = std::move(session->queue.front());
        session->queue.pop_front();
        ++stats_.shed;
        FrameResult shed;
        shed.session = session->id;
        shed.id = pending.id;
        shed.status = FrameStatus::kShed;
        shed.latency_ms = ms_since(pending.enqueued, std::chrono::steady_clock::now());
        pending.promise.set_value(std::move(shed));
      }
    }
  }
  work_cv_.notify_all();
  for (std::thread& t : executors_) t.join();
}

int FrameService::add_session(const SessionConfig& config, const core::Compositor& method) {
  if (config.ranks < 1) throw std::invalid_argument("FrameService: session ranks must be >= 1");
  if (config.image_size < 1) {
    throw std::invalid_argument("FrameService: session image_size must be >= 1");
  }
  // Build the session (and its volume) before taking the lock, so
  // executors serving other sessions are not held up by make_dataset.
  auto session = std::make_unique<Session>(config, method);
  std::lock_guard<std::mutex> lock(mutex_);
  session->id = static_cast<int>(sessions_.size());
  sessions_.push_back(std::move(session));
  return sessions_.back()->id;
}

std::optional<std::future<FrameResult>> FrameService::submit(int session,
                                                             const FrameRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session < 0 || static_cast<std::size_t>(session) >= sessions_.size()) {
    throw std::out_of_range("FrameService: unknown session id");
  }
  if (stopping_) return std::nullopt;
  Session& s = *sessions_[static_cast<std::size_t>(session)];
  ++stats_.submitted;
  if (s.queue.size() >= config_.queue_depth) {
    if (config_.overload == OverloadPolicy::kRejectNew) {
      ++stats_.rejected;
      return std::nullopt;
    }
    // kShedOldest: the newest request is the one the client still cares
    // about — drop the staidest pending frame and admit this one.
    Pending old = std::move(s.queue.front());
    s.queue.pop_front();
    ++stats_.shed;
    FrameResult shed;
    shed.session = session;
    shed.id = old.id;
    shed.status = FrameStatus::kShed;
    shed.latency_ms = ms_since(old.enqueued, std::chrono::steady_clock::now());
    old.promise.set_value(std::move(shed));
  }
  Pending pending;
  pending.id = next_id_++;
  pending.request = request;
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<FrameResult> future = pending.promise.get_future();
  s.queue.push_back(std::move(pending));
  work_cv_.notify_one();
  return future;
}

void FrameService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] {
    if (in_flight_ > 0) return false;
    for (const std::unique_ptr<Session>& session : sessions_) {
      if (!session->queue.empty()) return false;
    }
    return true;
  });
}

ServiceStats FrameService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t FrameService::session_scratch_bytes(int session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.at(static_cast<std::size_t>(session))->arena.scratch_bytes();
}

void FrameService::executor_loop() {
  for (;;) {
    Session* claimed = nullptr;
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto claim = [&]() -> Session* {
        const std::size_t n = sessions_.size();
        for (std::size_t k = 0; k < n; ++k) {
          Session& s = *sessions_[(next_session_ + k) % n];
          if (!s.in_flight && !s.queue.empty()) {
            next_session_ = ((next_session_ + k) % n) + 1;
            return &s;
          }
        }
        return nullptr;
      };
      work_cv_.wait(lock, [&] { return stopping_ || claim() != nullptr; });
      // The claim inside the predicate already advanced next_session_, so
      // re-scan once for the actual claim (cheap: sessions are few).
      claimed = claim();
      if (claimed == nullptr) {
        if (stopping_) return;
        continue;
      }
      pending = std::move(claimed->queue.front());
      claimed->queue.pop_front();
      claimed->in_flight = true;
      ++in_flight_;
    }

    FrameResult result = execute(*claimed, std::move(pending));

    {
      std::lock_guard<std::mutex> lock(mutex_);
      claimed->in_flight = false;
      --in_flight_;
      ++stats_.completed;
      stats_.latencies_ms.push_back(result.latency_ms);
      // Post-frame shrink-or-reset: the session never advertises scratch
      // sized for anything but its own frames.
      claimed->arena.trim(static_cast<std::int64_t>(claimed->config.image_size) *
                          claimed->config.image_size);
    }
    work_cv_.notify_one();
    drain_cv_.notify_all();
  }
}

FrameResult FrameService::execute(Session& session, Pending pending) {
  const auto dispatched = std::chrono::steady_clock::now();
  FrameResult out;
  out.session = session.id;
  out.id = pending.id;

  // Rendered-subimage cache: rebuilt from the session's volume only when
  // the camera moves (open-loop traffic with a fixed camera pays the render
  // cost once per session, and no frame regenerates the volume).
  if (session.cached == nullptr || session.cached_rot_x != pending.request.rot_x_deg ||
      session.cached_rot_y != pending.request.rot_y_deg) {
    ExperimentConfig config;
    config.dataset = session.config.dataset;
    config.volume_scale = session.config.volume_scale;
    config.image_size = session.config.image_size;
    config.ranks = session.config.ranks;
    config.rot_x_deg = pending.request.rot_x_deg;
    config.rot_y_deg = pending.request.rot_y_deg;
    config.cost_model = session.config.cost_model;
    session.cached = std::make_unique<Experiment>(session.dataset, config);
    session.cached_rot_x = pending.request.rot_x_deg;
    session.cached_rot_y = pending.request.rot_y_deg;
  }
  FtMethodResult ft =
      session.cached->run_ft(*session.method, pending.request.faults, &session.arena);

  const auto finished = std::chrono::steady_clock::now();
  out.status = FrameStatus::kDone;
  out.image = std::move(ft.result.final_image);
  out.report = std::move(ft.report);
  out.queue_ms = ms_since(pending.enqueued, dispatched);
  out.run_ms = ms_since(dispatched, finished);
  out.latency_ms = ms_since(pending.enqueued, finished);
  pending.promise.set_value(std::move(out));

  FrameResult summary;  // the executor's bookkeeping copy (latency only)
  summary.latency_ms = ms_since(pending.enqueued, finished);
  return summary;
}

}  // namespace slspvr::pvr
