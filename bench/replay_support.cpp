#include "replay_support.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

namespace rlacast::bench {

namespace {

std::string journal_path_for(const std::string& dir, const exp::RunSpec& spec) {
  return dir + "/" + spec.file_stem() + ".journal";
}

}  // namespace

std::function<void(sim::Simulator&)> ReplaySession::instrument() {
  replay::RunObserver* obs = recorder_ ? static_cast<replay::RunObserver*>(
                                             recorder_.get())
                                       : verifier_;
  if (obs == nullptr) return {};
  return [obs](sim::Simulator& sim) { sim.set_observer(obs); };
}

void ReplaySession::finish() {
  if (finished_) return;
  finished_ = true;
  if (recorder_) recorder_->finalize();
  if (verifier_ != nullptr) verifier_->finalize();
}

ReplayCoordinator::ReplayCoordinator(std::string experiment, Options& opt)
    : experiment_(std::move(experiment)), opt_(opt) {
  if (!opt_.replay_path.empty()) {
    if (!journal_.load(opt_.replay_path)) {
      std::fprintf(stderr, "replay: cannot load journal %s\n",
                   opt_.replay_path.c_str());
      std::exit(2);
    }
    const std::string bench = journal_.meta_value("bench");
    if (!bench.empty() && bench != experiment_) {
      std::fprintf(stderr,
                   "replay: journal %s was recorded by bench '%s', not '%s'\n",
                   opt_.replay_path.c_str(), bench.c_str(),
                   experiment_.c_str());
      std::exit(2);
    }
    // Re-create the run's effective schedule from the journal so the replay
    // matches regardless of this invocation's --smoke/--full/--duration.
    if (journal_.has_meta("duration"))
      opt_.duration = std::atof(journal_.meta_value("duration").c_str());
    if (journal_.has_meta("warmup"))
      opt_.warmup = std::atof(journal_.meta_value("warmup").c_str());
    if (journal_.has_meta("smoke"))
      opt_.smoke = journal_.meta_value("smoke") == "1";
    if (journal_.has_meta("full"))
      opt_.full = journal_.meta_value("full") == "1";
    if (journal_.has_meta("master_seed"))
      opt_.seed = std::strtoull(journal_.meta_value("master_seed").c_str(),
                                nullptr, 10);
    return;
  }
  record_dir_ = opt_.record_journal_dir;
  if (record_dir_.empty() && opt_.isolate && !opt_.crash_dir.empty())
    record_dir_ = opt_.crash_dir + "/journals";
  if (!record_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(record_dir_, ec);
    if (ec) {
      std::fprintf(stderr, "replay: cannot create journal dir %s: %s\n",
                   record_dir_.c_str(), ec.message().c_str());
      std::exit(2);
    }
  }
}

std::string ReplayCoordinator::journal_path(const exp::RunSpec& spec) const {
  return journal_path_for(record_dir_, spec);
}

std::unique_ptr<ReplaySession> ReplayCoordinator::session(
    const exp::RunSpec& spec) {
  auto s = std::unique_ptr<ReplaySession>(new ReplaySession());
  if (replay_mode()) {
    s->verifier_ = verifier_.get();  // null outside run_replay: inert
    return s;
  }
  if (!record_mode()) return s;
  replay::RecorderOptions ropts;
  ropts.checkpoint_every = opt_.checkpoint_events;
  ropts.stream_path = journal_path(spec);
  s->recorder_ = std::make_unique<replay::Recorder>(ropts);
  replay::Recorder& rec = *s->recorder_;
  rec.set_meta("bench", experiment_);
  rec.set_meta("case", spec.name);
  for (const auto& [k, v] : spec.point.items()) rec.set_meta("point." + k, v);
  rec.set_meta("replicate", std::to_string(spec.replicate));
  rec.set_meta("seed", std::to_string(spec.seed));
  rec.set_meta("master_seed", std::to_string(opt_.seed));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", opt_.duration);
  rec.set_meta("duration", buf);
  std::snprintf(buf, sizeof(buf), "%.17g", opt_.warmup);
  rec.set_meta("warmup", buf);
  rec.set_meta("smoke", opt_.smoke ? "1" : "0");
  rec.set_meta("full", opt_.full ? "1" : "0");
  return s;
}

int ReplayCoordinator::run_replay(const exp::RunFn& run) {
  exp::RunSpec spec;
  spec.name = journal_.meta_value("case");
  for (const auto& [k, v] : journal_.meta()) {
    if (k.rfind("point.", 0) == 0) spec.point.set(k.substr(6), v);
  }
  spec.replicate = std::atoi(journal_.meta_value("replicate").c_str());
  spec.seed =
      std::strtoull(journal_.meta_value("seed").c_str(), nullptr, 10);

  std::printf("replay: %s\n", opt_.replay_path.c_str());
  std::printf("replay: run %s, %zu records, %zu checkpoints%s\n",
              spec.id().c_str(), journal_.records().size(),
              journal_.checkpoints().size(),
              journal_.truncated() ? " (truncated: recorder died mid-run)"
                                   : "");
  verifier_ = std::make_unique<replay::Verifier>(journal_);
  bool threw = false;
  std::string what;
  try {
    run(spec);
  } catch (const std::exception& e) {
    threw = true;
    what = e.what();
  } catch (...) {
    threw = true;
    what = "unknown exception";
  }
  const replay::Verifier& v = *verifier_;
  if (v.diverged()) {
    std::printf("replay: DIVERGED\n%s\n", v.divergence().render().c_str());
    return 1;
  }
  if (threw) {
    // No divergence but the run died the way the recorded one may have —
    // for a truncated journal that *is* the reproduction.
    std::printf("replay: run terminated with: %s\n", what.c_str());
    if (v.reproduced_to_crash_point()) {
      std::printf(
          "replay: reproduced the truncated journal to its crash point "
          "(%" PRIu64 " records, %" PRIu64 " checkpoints verified)\n",
          v.records_matched(), v.verified_checkpoints());
      return 0;
    }
    return 1;
  }
  if (v.reproduced_to_crash_point()) {
    std::printf(
        "replay: reproduced the truncated journal past its crash point "
        "(%" PRIu64 " records, %" PRIu64 " checkpoints verified)\n",
        v.records_matched(), v.verified_checkpoints());
    return 0;
  }
  std::printf("replay: VERIFIED bit-identical (%" PRIu64
              " records, %" PRIu64 " checkpoints)\n",
              v.records_matched(), v.verified_checkpoints());
  return 0;
}

void ReplayCoordinator::configure_runner(exp::RunnerOptions& ropts) const {
  if (!record_mode()) return;
  const std::string dir = record_dir_;
  const std::string exp_name = experiment_;
  ropts.crash_context = [dir, exp_name](const exp::RunSpec& spec) {
    const std::string path = journal_path_for(dir, spec);
    std::string out;
    replay::Journal j;
    if (j.load(path)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "journal: %s\njournal records: %zu%s\n",
                    path.c_str(), j.records().size(),
                    j.truncated() ? " (truncated at the crash)" : "");
      out += buf;
      if (!j.checkpoints().empty()) {
        const replay::Checkpoint& cp = j.checkpoints().back();
        std::snprintf(buf, sizeof(buf),
                      "last checkpoint: id %" PRIu64 " at dispatch %" PRIu64
                      ", t=%.9g s\n",
                      cp.id, cp.dispatch_seq, cp.sim_time);
        out += buf;
      } else {
        out += "last checkpoint: none reached\n";
      }
      const std::size_t n = j.records().size();
      const std::size_t tail = n < 5 ? n : 5;
      if (tail > 0) {
        out += "journal tail:\n";
        for (std::size_t i = n - tail; i < n; ++i)
          out += "  " + j.records()[i].render() + "\n";
      }
    } else {
      out += "journal: " + path + " (unreadable or never written)\n";
    }
    out += "repro: bench_" + exp_name + " --replay " + path + "\n";
    return out;
  };
}

}  // namespace rlacast::bench
