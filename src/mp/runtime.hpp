// Runtime: spawns P "processor" threads and runs an SPMD function on each.
//
// Runtime::run is the substitute for `mpirun -np P`: it creates the shared
// communicator context, launches one PE thread per rank (the SPMD function,
// engine included, runs on exactly that one thread — one processing element
// per rank, as in the paper), executes the user function SPMD-style, joins
// all threads, propagates the first exception, and hands back the traffic
// trace for cost-model evaluation.
#pragma once

#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mp/communicator.hpp"
#include "mp/fault.hpp"

namespace slspvr::mp {

/// One rank's failure during an SPMD run. `primary` failures are original
/// faults (injected kill, decode error, recv timeout, user exception);
/// secondary ones are PeerFailedError aborts propagated by the poison
/// mechanism after some other rank already failed.
struct RankFailure {
  int rank = -1;
  int stage = 0;            ///< compositing stage the rank had reached
  bool primary = false;
  std::string what;
  std::exception_ptr error; ///< the original exception, rethrowable
};

/// Knobs for a fault-tolerant run. Both default to off, in which case the
/// runtime behaves (and traces) exactly as the fault-free runtime always
/// did — the injector hook and deadline checks are null/zero tests only.
struct RunOptions {
  FaultInjector* injector = nullptr;            ///< not owned; may be null
  std::chrono::milliseconds recv_timeout{0};    ///< 0 = block forever
  /// Reliable-transport knobs; disabled (max_attempts == 0) keeps the
  /// legacy unframed wire format and receive path byte-identical.
  RetryPolicy retry;
};

/// Result of one SPMD run: the complete traffic trace, safe to read because
/// all PE threads have been joined, plus any per-rank failures.
class RunResult {
 public:
  RunResult(std::unique_ptr<CommContext> ctx, std::vector<RankFailure> failures)
      : ctx_(std::move(ctx)), failures_(std::move(failures)) {}

  [[nodiscard]] const TrafficTrace& trace() const { return ctx_->trace; }

  /// All failures in the order they were recorded (first entry = the fault
  /// that started the abort, when `ok()` is false).
  [[nodiscard]] const std::vector<RankFailure>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }

 private:
  std::unique_ptr<CommContext> ctx_;
  std::vector<RankFailure> failures_;
};

/// SPMD entry point type: called once per rank on its own thread.
using RankFn = std::function<void(Comm&)>;

class Runtime {
 public:
  /// Run `fn` on `ranks` threads. Blocks until all ranks finish.
  ///
  /// If any rank throws, the shared context is poisoned so every other rank
  /// blocked on the failed one wakes with PeerFailedError — the join always
  /// completes, never deadlocks — and the first (primary) exception is
  /// rethrown after the join.
  [[nodiscard]] static RunResult run(int ranks, const RankFn& fn);

  /// Like `run` but never rethrows rank failures: they are returned in the
  /// RunResult for the caller to fold out / degrade on. `opts` plugs in the
  /// fault injector and the recv deadline.
  [[nodiscard]] static RunResult run_tolerant(int ranks, const RankFn& fn,
                                              const RunOptions& opts = {});
};

}  // namespace slspvr::mp
