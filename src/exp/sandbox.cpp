#include "exp/sandbox.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace rlacast::exp {
namespace {

// Payload framing on the result pipe. The trailer magic is what makes
// "complete": a child dying mid-write (or before writing anything) can
// never fake it.
constexpr std::uint32_t kPayloadMagic = 0x524c5850;   // "RLXP"
constexpr std::uint32_t kPayloadTrailer = 0x444f4e45; // "DONE"

bool write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, sizeof(b));
}

void put_f64(std::string& out, double v) {
  char b[8];
  std::memcpy(b, &v, sizeof(b));
  out.append(b, sizeof(b));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

bool get_u32(const std::string& in, std::size_t& pos, std::uint32_t& v) {
  if (pos + 4 > in.size()) return false;
  v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]);
  pos += 4;
  return true;
}

bool get_f64(const std::string& in, std::size_t& pos, double& v) {
  if (pos + 8 > in.size()) return false;
  std::memcpy(&v, in.data() + pos, sizeof(v));
  pos += 8;
  return true;
}

bool get_str(const std::string& in, std::size_t& pos, std::string& s) {
  std::uint32_t len = 0;
  if (!get_u32(in, pos, len) || pos + len > in.size()) return false;
  s.assign(in, pos, len);
  pos += len;
  return true;
}

/// Serializes one run's outcome for the pipe.
std::string encode_payload(bool ok, const std::string& error,
                           const Metrics& metrics) {
  std::string out;
  put_u32(out, kPayloadMagic);
  out += ok ? '\1' : '\0';
  put_str(out, error);
  put_u32(out, static_cast<std::uint32_t>(metrics.rows().size()));
  for (const auto& [name, value] : metrics.rows()) {
    put_str(out, name);
    put_f64(out, value);
  }
  put_u32(out, kPayloadTrailer);
  return out;
}

/// Parses a pipe payload back into `out`; only a byte-complete payload
/// (trailer present, nothing dangling) counts.
bool decode_payload(const std::string& in, IsolateOutcome& out) {
  std::size_t pos = 0;
  std::uint32_t magic = 0;
  if (!get_u32(in, pos, magic) || magic != kPayloadMagic) return false;
  if (pos + 1 > in.size()) return false;
  out.ok = in[pos++] != '\0';
  std::uint32_t nmetrics = 0;
  if (!get_str(in, pos, out.error) || !get_u32(in, pos, nmetrics))
    return false;
  for (std::uint32_t i = 0; i < nmetrics; ++i) {
    std::string name;
    double value = 0.0;
    if (!get_str(in, pos, name) || !get_f64(in, pos, value)) return false;
    out.metrics.set(std::move(name), value);
  }
  std::uint32_t trailer = 0;
  return get_u32(in, pos, trailer) && trailer == kPayloadTrailer &&
         pos == in.size();
}

void apply_limits(const IsolateLimits& limits) {
  if (limits.cpu_seconds > 0.0) {
    const auto secs =
        static_cast<rlim_t>(std::ceil(limits.cpu_seconds));
    struct rlimit rl;
    rl.rlim_cur = secs;
    rl.rlim_max = secs + 1;  // hard SIGKILL one second after the SIGXCPU
    ::setrlimit(RLIMIT_CPU, &rl);
  }
  if (limits.memory_mb > 0) {
    struct rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(limits.memory_mb) * 1024 * 1024;
    rl.rlim_max = rl.rlim_cur;
    ::setrlimit(RLIMIT_AS, &rl);
  }
}

}  // namespace

std::string IsolateOutcome::describe() const {
  char buf[128];
  if (timed_out) {
    std::snprintf(buf, sizeof(buf), "isolated run timed out (SIGKILL)");
  } else if (term_signal != 0) {
    const char* name = ::strsignal(term_signal);
    std::snprintf(buf, sizeof(buf), "killed by signal %d (%s)", term_signal,
                  name != nullptr ? name : "?");
  } else if (!completed) {
    std::snprintf(buf, sizeof(buf), "exited %d without a result payload",
                  exit_code);
  } else {
    std::snprintf(buf, sizeof(buf), "completed");
  }
  return buf;
}

IsolateOutcome run_isolated(const IsolatedRunFn& fn, const RunSpec& spec,
                            const IsolateLimits& limits,
                            double timeout_seconds) {
  IsolateOutcome out;
  // Runner workers fork concurrently. A child forked while another worker
  // still holds the write end of its result pipe would inherit that end,
  // and the other worker would see no EOF until this child exits (a wedged
  // child would make a finished run look timed out). Holding one lock from
  // pipe() to the parent's close of the write end keeps every write end in
  // exactly one child.
  static std::mutex fork_mu;
  std::unique_lock<std::mutex> fork_lock(fork_mu);
  int fds[2];
  if (::pipe(fds) != 0) {
    out.error = "pipe() failed";
    return out;
  }
  // Buffered stdio must be flushed pre-fork or the child's exit (and any
  // crash-handler output) replays the parent's pending bytes.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.error = "fork() failed";
    return out;
  }

  if (pid == 0) {
    // ---- child ----
    ::close(fds[0]);
    apply_limits(limits);
    bool ok = false;
    std::string error;
    Metrics metrics;
    try {
      metrics = fn(spec);
      ok = true;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    const std::string payload = encode_payload(ok, error, metrics);
    write_all(fds[1], payload.data(), payload.size());
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(0);
  }

  // ---- parent ----
  ::close(fds[1]);
  fork_lock.unlock();
  std::string payload;
  const auto t0 = std::chrono::steady_clock::now();
  bool killed = false;
  for (;;) {
    int wait_ms = -1;
    if (timeout_seconds > 0.0) {
      const double left =
          timeout_seconds -
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (left <= 0.0) {
        ::kill(pid, SIGKILL);
        killed = true;
        wait_ms = -1;  // child is dying; drain until EOF
      } else {
        wait_ms = static_cast<int>(left * 1000.0) + 1;
      }
    }
    struct pollfd pfd;
    pfd.fd = fds[0];
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;  // deadline re-check at loop top
    char buf[4096];
    const ssize_t r = ::read(fds[0], buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;  // EOF: child closed its end (exit or death)
    payload.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fds[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) out.term_signal = WTERMSIG(status);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);

  if (killed) {
    out.timed_out = true;
    return out;
  }
  if (decode_payload(payload, out) && WIFEXITED(status) &&
      WEXITSTATUS(status) == 0) {
    out.completed = true;
    return out;
  }
  // Anything else — a terminating signal, a sanitizer's exit(1) after an
  // intercepted SIGSEGV, an OOM kill, a torn payload — is a crash.
  out.crashed = true;
  out.ok = false;
  out.metrics = Metrics();
  return out;
}

}  // namespace rlacast::exp
