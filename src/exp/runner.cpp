#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "exp/sandbox.hpp"

namespace rlacast::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Writes <crash_dir>/<file stem>.crash.txt for one crashed isolated run;
/// returns its path ("" on failure — the crash row survives either way).
std::string write_crash_report(const RunnerOptions& opts, const RunSpec& spec,
                               const IsolateOutcome& outcome) {
  std::error_code ec;
  std::filesystem::create_directories(opts.crash_dir, ec);
  const std::string path =
      opts.crash_dir + "/" + spec.file_stem() + ".crash.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  std::fprintf(f, "crash report: %s\n", spec.id().c_str());
  std::fprintf(f, "case: %s\n", spec.name.c_str());
  std::fprintf(f, "params: %s\n", spec.point.id().c_str());
  std::fprintf(f, "replicate: %d\n", spec.replicate);
  std::fprintf(f, "seed: %llu\n",
               static_cast<unsigned long long>(spec.seed));
  std::fprintf(f, "outcome: %s\n", outcome.describe().c_str());
  if (opts.isolate_cpu_seconds > 0.0)
    std::fprintf(f, "rlimit cpu: %g s\n", opts.isolate_cpu_seconds);
  if (opts.isolate_mem_mb > 0)
    std::fprintf(f, "rlimit as: %zu MiB\n", opts.isolate_mem_mb);
  if (opts.timeout_seconds > 0.0)
    std::fprintf(f, "timeout: %g s\n", opts.timeout_seconds);
  if (opts.crash_context) {
    const std::string extra = opts.crash_context(spec);
    if (!extra.empty()) {
      std::fputs(extra.c_str(), f);
      if (extra.back() != '\n') std::fputc('\n', f);
    }
  }
  std::fclose(f);
  return path;
}

/// Runs out.spec in this process; an exception becomes an error row.
void run_in_process(const RunFn& fn, RunResult& out) {
  try {
    out.metrics = fn(out.spec);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
}

/// Runs out.spec in a forked child (exp/sandbox.hpp): the one place a run
/// can be stopped from outside.  An overdue child is SIGKILLed into a
/// timed_out row; an abnormal death becomes a crashed row (plus a report
/// when crash_dir is set).
void run_forked(const RunnerOptions& opts, const RunFn& fn, RunResult& out) {
  IsolateLimits limits;
  limits.cpu_seconds = opts.isolate_cpu_seconds;
  limits.memory_mb = opts.isolate_mem_mb;
  IsolateOutcome iso =
      run_isolated(fn, out.spec, limits, opts.timeout_seconds);
  out.term_signal = iso.term_signal;  // 0 unless the child was signaled
  if (iso.timed_out) {
    out.timed_out = true;
    char msg[64];
    std::snprintf(msg, sizeof(msg), "timeout after %g s", opts.timeout_seconds);
    out.error = msg;
    return;
  }
  if (iso.crashed) {
    out.crashed = true;
    out.error = iso.describe();
    if (!opts.crash_dir.empty())
      out.crash_report = write_crash_report(opts, out.spec, iso);
    return;
  }
  out.ok = iso.ok;
  out.metrics = std::move(iso.metrics);
  out.error = std::move(iso.error);
}

}  // namespace

Results Runner::run(const std::vector<RunSpec>& specs, const RunFn& fn) const {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RunResult> results(specs.size());

  // Shared cursor: each worker claims the next un-run spec. Claim order is
  // nondeterministic under contention, but every result lands in its own
  // grid slot and every seed comes from the spec, so output is not.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      RunResult& out = results[i];
      out.spec = specs[i];
      const auto run_t0 = std::chrono::steady_clock::now();
      if (opts_.isolate || opts_.timeout_seconds > 0.0) {
        run_forked(opts_, fn, out);
      } else {
        run_in_process(fn, out);
      }
      out.wall_seconds = seconds_since(run_t0);
      const std::size_t completed =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (opts_.progress) {
        std::lock_guard<std::mutex> lock(progress_mu);
        const char* marker = "";
        if (!out.ok)
          marker = out.timed_out ? " [TIMEOUT]"
                                 : (out.crashed ? " [CRASH]" : " [ERROR]");
        std::fprintf(stderr, "exp: %zu/%zu %s%s (%.1f s)\n", completed,
                     specs.size(), specs[i].id().c_str(), marker,
                     out.wall_seconds);
      }
    }
  };

  int jobs = opts_.jobs;
  if (jobs < 1) jobs = 1;
  if (static_cast<std::size_t>(jobs) > specs.size())
    jobs = static_cast<int>(specs.size());

  // Soak heartbeat: a monitor thread wakes every heartbeat_seconds and
  // reports batch progress, so a long chaos run is visibly alive between
  // completion lines. Joined before run() returns.
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread heartbeat;
  if (opts_.heartbeat_seconds > 0.0) {
    heartbeat = std::thread([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      for (;;) {
        if (hb_cv.wait_for(
                lock,
                std::chrono::duration<double>(opts_.heartbeat_seconds),
                [&] { return hb_stop; }))
          return;
        const std::size_t completed = done.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> plock(progress_mu);
        std::fprintf(stderr, "exp: heartbeat %zu/%zu done (%.1f s elapsed)\n",
                     completed, specs.size(), seconds_since(t0));
      }
    });
  }

  if (jobs <= 1) {
    worker();  // run inline: no pool overhead for the common --jobs 1 path
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  if (heartbeat.joinable()) {
    {
      std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  }

  last_wall_seconds_ = seconds_since(t0);
  return Results(std::move(results));
}

}  // namespace rlacast::exp
