// Persistent host worker pool owned by the Scheduler (PR 9), hoisted out of
// scheduler.cpp into an annotatable header (PR 10): the threads are spawned
// once at construction and reused by every run(), replacing the old
// per-run spawn/join. Job i is pinned to worker i % threads, so a card's
// state is only ever touched by one thread across park/unpark cycles. A
// job returns kParked when it cannot progress (admission grant pending);
// unpark(i) makes it runnable again. With one effective thread there are
// no workers at all: run() drives every job cooperatively on the calling
// thread — the forced-serial mode the thread-stress test compares against.
//
// Concurrency contract (machine-checked): every mutable scheduling field is
// guarded by mu_ (TFACC_GUARDED_BY below — compile-time under Clang's
// -Wthread-safety). A job body runs with mu_ RELEASED: the worker claims
// the job under the lock (runnable_[j] = 0 makes it the sole owner), drops
// the lock around the invocation, and re-acquires to record the outcome.
// workers_ and threads_ are written only during construction / destruction
// and never resized afterwards, so they need no guard. AdmissionGate's
// grant callback calls unpark() after releasing the gate mutex, and no pool
// code calls into the gate while holding mu_, so mu_ is never taken under
// another lock. std::thread objects are constructed nowhere else in the
// tree (lint rule thread-spawn).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace tfacc {

class WorkerPool {
 public:
  enum class Status { kDone, kParked };
  using Job = std::function<Status()>;

  /// `threads >= 1`; one thread is the cooperative inline mode (no workers
  /// are spawned and run() drives every job on the calling thread).
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const {
    return threads_.empty() ? 1 : static_cast<int>(threads_.size());
  }

  /// Run `jobs` to completion (every job returned kDone). Blocks the caller.
  /// Jobs must not throw — wrap them.
  void run(std::vector<Job> jobs) TFACC_EXCLUDES(mu_);

  /// Make a parked job runnable again and wake its worker. Callable from
  /// any thread (the admission gate's grant callback, possibly while that
  /// thread is executing a different job). It only sets a flag, so an
  /// unpark that lands before the job parks is not lost: the job runs again
  /// and finds its grant.
  void unpark(std::size_t job) TFACC_EXCLUDES(mu_);

 private:
  struct Worker {
    CondVar cv;
  };

  // Cooperative single-thread mode: round-robin over runnable jobs. All
  // parked with work remaining would be a deadlock — unreachable, because a
  // job only parks on a pending reservation, and the gate grants the
  // minimal pending reservation at every interaction (the grant callback
  // marks its job runnable before the granting job returns);
  // tools/gate_model_check proves deadlock-freedom over every interleaving
  // of the shipped protocol.
  void run_inline() TFACC_EXCLUDES(mu_);

  void worker_main(std::size_t w) TFACC_EXCLUDES(mu_);

  /// Does worker w own a live, runnable job right now?
  bool has_runnable(std::size_t w) const TFACC_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar done_cv_;
  std::uint64_t generation_ TFACC_GUARDED_BY(mu_) = 0;
  std::vector<Job> jobs_ TFACC_GUARDED_BY(mu_);
  std::vector<char> live_ TFACC_GUARDED_BY(mu_);
  std::vector<char> runnable_ TFACC_GUARDED_BY(mu_);
  std::size_t remaining_ TFACC_GUARDED_BY(mu_) = 0;
  bool shutdown_ TFACC_GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<Worker>> workers_;  // sized once, at spawn
  std::vector<std::thread> threads_;              // ctor spawn / dtor join
};

}  // namespace tfacc
