// One pass of one benchmark workload, in its own process. benchmark/run.py
// starts one process per pass, so set-up time and peak RSS are per pass and no
// pass inherits another pass's heap.
//
//   ppn_bench --workload reproduce|check_large|check_spill|converge
//             --seed S [--trace] [--spill-dir DIR] [--t0-ns NS]
//
// The driver calls the libraries' public functions only and times them from
// outside. It checks every result against pinned values and prints ONE JSON
// line: set-up and wall time, work done, peak RSS, operations attempted and
// failed (with reasons), the converge outcome digest, and -- with --trace --
// the per-layer breakdown. --t0-ns is the CLOCK_MONOTONIC time at which the
// parent started this process, so set-up time includes process launch.
//
// Tracing: the driver opens a span around each public call, and an
// ExploreObserver turns the library's phase events (search, check, explore,
// scc, verdict, synthesize) into child spans. Spans are aggregated per name in
// memory; a span's self time is its duration minus its children's. Attaching
// the observer slows the analysis (each exploration samples /proc once), so
// traced numbers are a breakdown, not a measurement: run.py reports the
// overhead next to them.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/adversary_synth.h"
#include "analysis/global_checker.h"
#include "analysis/initial_sets.h"
#include "analysis/protocol_search.h"
#include "analysis/table1.h"
#include "analysis/weak_checker.h"
#include "core/compiled.h"
#include "naming/registry.h"
#include "sim/batch_engine.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/seed.h"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Per-name span totals of the driver thread.
class Spans {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
  };

  void open(std::string_view name) {
    stack_.push_back(Open{name, Clock::now(), 0.0});
  }

  /// Closes the innermost span; false when it is not `name` (unbalanced).
  bool close(std::string_view name) {
    if (stack_.empty() || stack_.back().name != name) return false;
    const Open o = stack_.back();
    stack_.pop_back();
    const double ms = msSince(o.start);
    Totals& t = totals_[std::string(o.name)];
    ++t.calls;
    t.totalMs += ms;
    t.selfMs += ms - o.childMs;
    if (!stack_.empty()) stack_.back().childMs += ms;
    return true;
  }

  bool inside(std::string_view name) const {
    return std::any_of(stack_.begin(), stack_.end(),
                       [&](const Open& o) { return o.name == name; });
  }

  Totals get(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? Totals{} : it->second;
  }

 private:
  struct Open {
    std::string_view name;
    Clock::time_point start;
    double childMs;
  };
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
};

/// Result of one pass: what run.py turns into metrics.
struct Pass {
  bool traced = false;
  bool timing = false;  // set once set-up is done
  Spans spans;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::uint64_t work = 0;
  std::string digest;
  /// Duration of every driver call in the timed section, in call order: the
  /// same sequence in every pass of a workload, so run.py can take each
  /// call's fastest time across passes.
  std::vector<double> segmentsMs;

  /// Counts one operation (a Table 1 cell, a search job, a checker call, a
  /// simulation run); `ok` false records it as failed with `what`.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// Driver span around one public call: always timed as a segment once set-up
/// is done, and recorded in the span tree in traced passes.
class Span {
 public:
  Span(Pass& pass, std::string_view name)
      : pass_(pass), name_(name), start_(Clock::now()) {
    if (pass_.traced) pass_.spans.open(name_);
  }
  ~Span() {
    if (pass_.traced) pass_.spans.close(name_);
    if (pass_.timing) pass_.segmentsMs.push_back(msSince(start_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Pass& pass_;
  std::string_view name_;
  Clock::time_point start_;
};

/// Turns the analysis layer's phase events into child spans and sums the
/// final progress and memory events of every exploration. Every event must
/// arrive on the driver thread (the phase scopes of the checkers, searches and
/// explorers run on the calling thread); anything else breaks the span tree
/// and is reported as a failure.
class PhaseProbe final : public ppn::ExploreObserver {
 public:
  explicit PhaseProbe(Pass& pass)
      : pass_(pass), owner_(std::this_thread::get_id()) {}

  std::uint64_t searchExplores = 0, nodes = 0, edges = 0, dedupHits = 0;
  std::uint64_t synthNodes = 0, truncations = 0, candidates = 0;
  std::uint64_t peakLedgerBytes = 0, finalLedgerBytes = 0;
  std::uint64_t spillBytes = 0, spillRuns = 0;
  double expandMs = 0.0, dedupMs = 0.0, appendMs = 0.0, ioMs = 0.0;
  std::atomic<bool> offThread{false};

  void onPhaseStart(const ppn::ExplorePhaseStartEvent& e) override {
    if (!onOwner()) return;
    const std::string_view phase = e.phase;
    if (phase == "explore" && pass_.spans.inside("search")) ++searchExplores;
    pass_.spans.open(phase);
  }
  void onPhaseEnd(const ppn::ExplorePhaseEndEvent& e) override {
    if (!onOwner()) return;
    if (!pass_.spans.close(e.phase)) {
      pass_.failures.push_back(std::string("unbalanced phase event: ") +
                               e.phase);
    }
  }
  void onExploreProgress(const ppn::ExploreProgressEvent& e) override {
    if (!onOwner() || !e.done) return;
    nodes += e.nodes;
    edges += e.edges;
    dedupHits += e.dedupHits;
    expandMs += e.expandMillis;
    dedupMs += e.dedupMillis;
    appendMs += e.appendMillis;
    ioMs += e.ioMillis;
    if (pass_.spans.inside("synthesize")) synthNodes += e.nodes;
  }
  void onMemorySample(const ppn::MemorySampleEvent& e) override {
    if (!onOwner()) return;
    peakLedgerBytes = std::max(peakLedgerBytes, e.highWaterBytes);
    spillBytes = std::max(spillBytes, e.spillBytes);
    spillRuns = std::max(spillRuns, e.spillRuns);
    if (e.done) finalLedgerBytes += e.highWaterBytes;
  }
  void onTruncated(const ppn::ExploreTruncatedEvent&) override {
    if (onOwner()) ++truncations;
  }
  void onSearchProgress(const ppn::SearchProgressEvent& e) override {
    if (onOwner() && e.done) candidates += e.examined;
  }

 private:
  bool onOwner() {
    if (std::this_thread::get_id() == owner_) return true;
    offThread = true;
    return false;
  }

  Pass& pass_;
  std::thread::id owner_;
};

/// Counts what the simulation kernel reports; called from engine workers.
class RunProbe final : public ppn::RunObserver {
 public:
  std::atomic<std::uint64_t> silenceChecks{0};
  std::atomic<std::uint64_t> lanesRetired{0};

  void onSilenceCheck(const ppn::SilenceCheckEvent&) override {
    silenceChecks.fetch_add(1, std::memory_order_relaxed);
  }
  void onBatchProgress(const ppn::BatchProgressEvent& e) override {
    if (e.completed == e.total) {
      lanesRetired.fetch_add(e.lanesRetired, std::memory_order_relaxed);
    }
  }
};

/// What the converge workload measures besides spans (zero elsewhere).
struct SimStats {
  std::uint64_t runs = 0, interactions = 0, useful = 0, emitBytes = 0;
  double emitMs = 0.0;
};

/// Per-layer metrics of a traced pass, by name (see benchmark/README.md).
/// Every workload reports every name; layers it does not reach read 0.
using Layers = std::map<std::string, double>;

Layers layerMetrics(const Spans& s, const PhaseProbe& probe,
                    const RunProbe& runProbe, const SimStats& sim) {
  const double exploreMs = s.get("explore").totalMs;
  const auto n = static_cast<double>(probe.nodes);
  const auto hits = static_cast<double>(probe.dedupHits);
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  return {
      {"explore.calls", static_cast<double>(s.get("explore").calls)},
      {"explore.nodes", n},
      {"explore.edges", static_cast<double>(probe.edges)},
      {"explore.dedup_hit_frac", ratio(hits, hits + n)},
      {"explore.ms", exploreMs},
      {"explore.expand_ms", probe.expandMs},
      {"explore.dedup_ms", probe.dedupMs},
      {"explore.append_ms", probe.appendMs},
      {"explore.other_ms", exploreMs - probe.expandMs - probe.dedupMs -
                               probe.appendMs - probe.ioMs},
      {"explore.peak_ledger_mb",
       static_cast<double>(probe.peakLedgerBytes) / kMiB},
      {"explore.bytes_per_node",
       ratio(static_cast<double>(probe.finalLedgerBytes), n)},
      {"spill.io_ms", probe.ioMs},
      {"spill.disk_mb", static_cast<double>(probe.spillBytes) / kMiB},
      {"spill.runs", static_cast<double>(probe.spillRuns)},
      {"scc.calls", static_cast<double>(s.get("scc").calls)},
      {"scc.ms", s.get("scc").totalMs},
      {"check.calls", static_cast<double>(s.get("check").calls)},
      {"check.self_ms", s.get("check").selfMs +
                            s.get("global_checker").selfMs +
                            s.get("weak_checker").selfMs},
      {"check.verdict_ms", s.get("verdict").totalMs},
      {"check.unknown", static_cast<double>(probe.truncations)},
      {"synth.calls", static_cast<double>(s.get("synthesize").calls)},
      {"synth.self_ms",
       s.get("synthesize").selfMs + s.get("adversary_synth").selfMs},
      {"synth.replay_ms", s.get("replay").totalMs},
      {"synth.explore_nodes", static_cast<double>(probe.synthNodes)},
      {"search.candidates", static_cast<double>(probe.candidates)},
      {"search.self_ms",
       s.get("search").selfMs + s.get("protocol_search").selfMs},
      {"search.explores_per_candidate",
       ratio(static_cast<double>(probe.searchExplores),
             static_cast<double>(probe.candidates))},
      {"table1.self_ms", s.get("table1").selfMs},
      {"initials.ms", s.get("initial_sets").totalMs},
      {"sim.submit_ms", s.get("batch_engine.submit").totalMs},
      {"sim.wait_ms", s.get("batch_engine.wait").totalMs},
      {"sim.runs", static_cast<double>(sim.runs)},
      {"sim.interactions", static_cast<double>(sim.interactions)},
      {"sim.useful_frac", ratio(static_cast<double>(sim.useful),
                                static_cast<double>(sim.interactions))},
      {"sim.silence_checks", static_cast<double>(runProbe.silenceChecks)},
      {"sim.lanes_retired", static_cast<double>(runProbe.lanesRetired)},
      {"sim.emit_ms", sim.emitMs},
      {"sim.emit_bytes", static_cast<double>(sim.emitBytes)},
      {"core.compile_ms", s.get("compiled").totalMs},
  };
}

/// The self-time rows of the timed section; with unattributed_ms they add up
/// to obs.traced_wall_ms. Set-up spans (initials.ms, core.compile_ms) are
/// outside the timed section and not part of this sum.
constexpr const char* kBreakdown[] = {
    "table1.self_ms", "search.self_ms",  "check.self_ms", "check.verdict_ms",
    "explore.ms",     "scc.ms",          "synth.self_ms", "synth.replay_ms",
    "sim.submit_ms",  "sim.wait_ms"};

// ---------------------------------------------------------------------------
// Workloads. Each does its set-up, calls `ready()` once, then runs its timed
// section and checks every result against the pinned values.

struct Context {
  Pass& pass;
  std::uint32_t threads;
  ppn::ExploreObserver* observer;  // null in untraced passes
  RunProbe* runProbe;              // null in untraced passes
  std::string spillDir;
  std::uint64_t seed;
  std::function<void()> ready;
  SimStats sim;
};

void reproduce(Context& c) {
  Pass& p = c.pass;
  struct Job {
    ppn::StateId q;
    std::uint32_t n;
    ppn::Fairness fairness;
    bool symmetric, selfStab;
    std::uint64_t examined, solvers;
  };
  // The E13 job list of bench/lower_bound_search, with its pinned outcomes.
  const std::vector<Job> jobs{
      {2, 2, ppn::Fairness::kGlobal, true, false, 16, 0},
      {2, 2, ppn::Fairness::kWeak, true, false, 16, 0},
      {3, 3, ppn::Fairness::kGlobal, true, false, 19683, 0},
      {3, 3, ppn::Fairness::kWeak, true, false, 19683, 0},
      {3, 2, ppn::Fairness::kWeak, true, false, 19683, 0},
      {3, 2, ppn::Fairness::kGlobal, true, false, 19683, 0},
      {2, 2, ppn::Fairness::kGlobal, false, false, 256, 12},
      {2, 2, ppn::Fairness::kWeak, false, false, 256, 12},
      {2, 2, ppn::Fairness::kWeak, false, true, 256, 8},
  };
  c.ready();

  for (std::uint32_t cell = 0; cell < ppn::table1CellCount(); ++cell) {
    ppn::Table1Options options;
    options.threads = c.threads;
    options.observer = c.observer;
    ppn::Table1CellResult r;
    {
      const Span span(p, "table1");
      r = ppn::runTable1Cell(cell, 4, options);
    }
    p.op(r.verdict == ppn::Table1Check::kPass,
         "table1 cell " + std::to_string(cell) + " at P=4: " +
             ppn::table1CheckName(r.verdict));
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    ppn::SearchOptions options;
    options.threads = c.threads;
    options.observer = c.observer;
    options.searchId = j + 1;
    ppn::SearchOutcome out;
    {
      const Span span(p, "protocol_search");
      out = job.selfStab
                ? ppn::searchSelfStabilizingNaming(job.q, job.n, job.fairness,
                                                   job.symmetric, options)
                : ppn::searchUniformNaming(job.q, job.n, job.fairness,
                                           job.symmetric, options);
    }
    p.work += out.examined;
    p.op(out.examined == job.examined && out.solvers == job.solvers &&
             out.unknown == 0,
         "E13 job " + std::to_string(j + 1) + ": examined/solvers/unknown " +
             std::to_string(out.examined) + "/" + std::to_string(out.solvers) +
             "/" + std::to_string(out.unknown) + ", expected " +
             std::to_string(job.examined) + "/" +
             std::to_string(job.solvers) + "/0");
  }
}

/// Check (a): global fairness on asymmetric P=N=11 from every canonical
/// configuration. `spillDir` non-empty moves the dedup tier to disk.
/// (At P=N=12, 1.35M nodes, one pass took 6-7 s, too long for a run to hold
/// enough passes to be steady on a shared host.)
struct CheckA {
  std::unique_ptr<ppn::Protocol> proto = ppn::makeProtocol("asymmetric", 11);
  ppn::Problem problem = ppn::namingProblem(*proto);
  std::vector<ppn::Configuration> initials;

  explicit CheckA(Pass& p) {
    const Span span(p, "initial_sets");
    initials = ppn::allCanonicalConfigurations(*proto, 11);
  }

  void run(Context& c, const std::string& spillDir) {
    Pass& p = c.pass;
    ppn::ExploreOptions options;
    options.threads = c.threads;
    options.observer = c.observer;
    options.exploreId = 1;
    if (!spillDir.empty()) {
      options.spillBytes = 1u << 20;
      options.spillDir = spillDir;
    }
    ppn::GlobalVerdict v;
    {
      const Span span(p, "global_checker");
      v = ppn::checkGlobalFairness(*proto, problem, initials, options);
    }
    p.work += v.numConfigs;
    p.op(v.explored && v.solves && v.numConfigs == 352'716 &&
             v.numBottomSccs == 1,
         "check (a): " + std::to_string(v.numConfigs) + " nodes, solves=" +
             std::to_string(v.solves) + ", " +
             std::to_string(v.numBottomSccs) + " bottom SCCs; " + v.reason);
  }
};

void checkLarge(Context& c) {
  Pass& p = c.pass;
  CheckA a(p);
  const auto protoB = ppn::makeProtocol("asymmetric", 8);
  const ppn::Problem problemB = ppn::namingProblem(*protoB);
  const auto protoC = ppn::makeProtocol("symmetric-global", 6);
  const ppn::Problem problemC = ppn::namingProblem(*protoC);
  std::vector<ppn::Configuration> initialsB, initialsC;
  {
    const Span span(p, "initial_sets");
    initialsB = ppn::allConcreteConfigurations(*protoB, 6);
    initialsC = ppn::allConcreteConfigurations(*protoC, 6);
  }
  c.ready();

  a.run(c, "");

  ppn::ExploreOptions options;
  options.threads = c.threads;
  options.observer = c.observer;
  options.exploreId = 2;
  ppn::WeakVerdict b;
  {
    const Span span(p, "weak_checker");
    b = ppn::checkWeakFairness(*protoB, problemB, initialsB, options);
  }
  p.work += b.numConfigs;
  p.op(b.explored && b.solves && b.numConfigs == 262'144,
       "check (b): " + std::to_string(b.numConfigs) +
           " nodes, solves=" + std::to_string(b.solves) + "; " + b.reason);

  options.exploreId = 3;
  ppn::WeakVerdict v;
  {
    const Span span(p, "weak_checker");
    v = ppn::checkWeakFairness(*protoC, problemC, initialsC, options);
  }
  p.work += v.numConfigs;
  p.op(v.explored && !v.solves && v.numConfigs == 117'649,
       "check (c): " + std::to_string(v.numConfigs) +
           " nodes, solves=" + std::to_string(v.solves) + "; " + v.reason);

  options.exploreId = 4;
  std::optional<ppn::AdversarySchedule> schedule;
  {
    const Span span(p, "adversary_synth");
    schedule =
        ppn::synthesizeWeakAdversary(*protoC, problemC, initialsC, options);
  }
  p.op(schedule.has_value(), "check (c): no adversary synthesized");
  if (!schedule) return;
  ppn::ReplayReport replay;
  {
    const Span span(p, "replay");
    replay = ppn::replayAdversary(*protoC, problemC, *schedule);
  }
  p.op(replay.valid(), "check (c): synthesized adversary does not replay");
}

void checkSpill(Context& c) {
  Pass& p = c.pass;
  if (c.spillDir.empty() || !std::filesystem::is_directory(c.spillDir)) {
    throw std::invalid_argument("check_spill needs an existing --spill-dir");
  }
  CheckA a(p);
  c.ready();
  a.run(c, c.spillDir);
  p.op(std::filesystem::is_empty(c.spillDir),
       "check_spill: run files left in " + c.spillDir);
}

void converge(Context& c) {
  Pass& p = c.pass;
  struct Job {
    const char* key;
    ppn::StateId p;
    std::uint32_t n;
    ppn::InitKind init;
  };
  // Costliest job first and 64-lane blocks: the two workers then finish
  // within one small block of each other, so pass time does not hinge on
  // which worker drew the last big block.
  const std::vector<Job> jobs{
      {"global-leader", 4, 4, ppn::InitKind::kArbitrary},
      {"leader-uniform", 256, 256, ppn::InitKind::kUniform},
      {"counting", 14, 13, ppn::InitKind::kArbitrary},
      {"asymmetric", 64, 64, ppn::InitKind::kArbitrary},
      {"selfstab-weak", 12, 12, ppn::InitKind::kArbitrary},
      {"symmetric-global", 13, 13, ppn::InitKind::kArbitrary},
  };
  constexpr std::uint32_t kRuns = 512;
  std::vector<std::unique_ptr<ppn::Protocol>> protos;
  for (const Job& job : jobs) protos.push_back(ppn::makeProtocol(job.key, job.p));
  {
    // The engine compiles each job's protocol again at submit; this one-off
    // compilation is what core.compile_ms reports.
    const Span span(p, "compiled");
    for (const auto& proto : protos) {
      const ppn::CompiledProtocol compiled(*proto);
    }
  }
  ppn::BatchEngine engine(ppn::BatchEngineOptions{c.threads, 64});

  // The emit sink folds every run_outcome line into a per-job digest, in run
  // order; in the traced pass it also times itself.
  struct Emit {
    ppn::Fnv1a digest;
    std::uint64_t bytes = 0;
    double ms = 0.0;
  };
  std::vector<Emit> emits(jobs.size());
  const bool traced = p.traced;
  c.ready();

  std::vector<std::shared_ptr<ppn::BatchEngine::Job>> handles;
  {
    const Span span(p, "batch_engine.submit");
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      ppn::BatchSpec spec;
      spec.numMobile = jobs[j].n;
      spec.init = jobs[j].init;
      spec.sched = ppn::SchedulerKind::kRandom;
      spec.runs = kRuns;
      spec.seed = ppn::Fnv1a(c.seed).mix(j).value();
      spec.limits.maxInteractions = 200'000'000;
      spec.observer = c.runProbe;
      spec.runIdBase = j * kRuns;
      Emit* emit = &emits[j];
      handles.push_back(engine.submit(
          *protos[j], spec, [emit, traced](const std::string& line) {
            const Clock::time_point t0 =
                traced ? Clock::now() : Clock::time_point{};
            emit->digest.mix(line).mix(std::uint64_t{'\n'});
            emit->bytes += line.size() + 1;
            if (traced) emit->ms += msSince(t0);
          }));
    }
  }
  for (const auto& h : handles) {
    const Span span(p, "batch_engine.wait");
    h->wait();
  }

  ppn::Fnv1a digest(c.seed);
  std::uint64_t runs = 0, total = 0, useful = 0, emitBytes = 0;
  double emitMs = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::vector<ppn::RunOutcome>& outcomes = handles[j]->outcomes();
    for (std::size_t r = 0; r < outcomes.size(); ++r) {
      const ppn::RunOutcome& o = outcomes[r];
      ++runs;
      total += o.totalInteractions;
      useful += o.nonNullInteractions;
      p.op(o.silent && o.namingSolved,
           std::string(jobs[j].key) + " run " + std::to_string(r) +
               " not named after " + std::to_string(o.totalInteractions) +
               " interactions");
    }
    digest.mix(emits[j].digest.value());
    emitBytes += emits[j].bytes;
    emitMs += emits[j].ms;
  }
  if (runs != jobs.size() * kRuns) {
    p.failures.push_back("converge: " + std::to_string(runs) +
                         " run outcomes, expected " +
                         std::to_string(jobs.size() * kRuns));
  }
  p.work = total;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest.value()));
  p.digest = hex;

  c.sim = SimStats{runs, total, useful, emitBytes, emitMs};
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point mainStart = Clock::now();
  ppn::Cli cli("ppn_bench", "one pass of one end-to-end benchmark workload");
  const auto* workload = cli.addString(
      "workload", "reproduce | check_large | check_spill | converge", "");
  const auto* seed = cli.addUint("seed", "workload seed (converge inputs)", 1);
  const auto* trace = cli.addFlag("trace", "record the per-layer breakdown");
  const auto* spillDir = cli.addString(
      "spill-dir", "empty private directory for check_spill run files", "");
  const auto* t0Ns = cli.addUint(
      "t0-ns", "CLOCK_MONOTONIC ns when the parent launched this process", 0);
  if (!cli.parse(argc, argv)) return 1;

  // The checks run the explorer on one thread: at two, the level-synchronous
  // parallel engine was no faster on a 4-vCPU host, held 5x the RSS, and
  // every BFS level waited for whichever vCPU another tenant slowed, which
  // tripled the run-to-run spread.
  struct Workload {
    const char* name;
    void (*run)(Context&);
    std::uint32_t threads;
  };
  constexpr Workload kWorkloads[] = {{"reproduce", reproduce, 1},
                                     {"check_large", checkLarge, 1},
                                     {"check_spill", checkSpill, 1},
                                     {"converge", converge, 2}};
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (*workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) {
    std::fprintf(stderr, "ppn_bench: unknown --workload '%s'\n",
                 workload->c_str());
    return 1;
  }

  Pass pass;
  pass.traced = *trace;
  PhaseProbe phaseProbe(pass);
  RunProbe runProbe;
  const Clock::time_point t0 =
      *t0Ns != 0 ? Clock::time_point(std::chrono::nanoseconds(*t0Ns))
                 : mainStart;
  Clock::time_point timedStart = Clock::now();
  double setupS = 0.0;
  Context ctx{pass,
              chosen->threads,
              pass.traced ? &phaseProbe : nullptr,
              pass.traced ? &runProbe : nullptr,
              *spillDir,
              *seed,
              [&] {
                pass.timing = true;
                timedStart = Clock::now();
                setupS = std::chrono::duration<double>(timedStart - t0).count();
              },
              {}};
  try {
    chosen->run(ctx);
  } catch (const std::exception& e) {
    pass.op(false, std::string("exception: ") + e.what());
  }
  const double wallMs = msSince(timedStart);
  if (phaseProbe.offThread) {
    pass.failures.push_back("explore observer called off the driver thread");
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double wallS = wallMs / 1e3;

  ppn::JsonWriter w;
  w.beginObject();
  w.key("workload").value(*workload);
  w.key("seed").value(*seed);
  w.key("threads").value(chosen->threads);
  w.key("traced").value(pass.traced);
  w.key("setup_s").value(setupS);
  w.key("wall_s").value(wallS);
  w.key("work").value(pass.work);
  w.key("work_per_s").value(static_cast<double>(pass.work) / wallS);
  w.key("peak_rss_mb").value(static_cast<double>(usage.ru_maxrss) / 1024.0);
  w.key("attempted").value(pass.attempted);
  w.key("failures").beginArray();
  for (const std::string& f : pass.failures) w.value(f);
  w.endArray();
  w.key("digest").value(pass.digest);
  w.key("segments_ms").beginArray();
  for (const double ms : pass.segmentsMs) w.value(ms);
  w.endArray();
  if (pass.traced) {
    Layers layers = layerMetrics(pass.spans, phaseProbe, runProbe, ctx.sim);
    double attributed = 0.0;
    for (const char* name : kBreakdown) attributed += layers.at(name);
    layers["obs.traced_wall_ms"] = wallMs;
    layers["unattributed_ms"] = wallMs - attributed;
    w.key("layers").beginObject();
    for (const auto& [k, v] : layers) w.key(k).value(v);
    w.endObject();
    w.key("breakdown").beginArray();
    for (const char* name : kBreakdown) w.value(name);
    w.value("unattributed_ms");
    w.endArray();
  }
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  for (const std::string& f : pass.failures) {
    std::fprintf(stderr, "ppn_bench: FAILED: %s\n", f.c_str());
  }
  return 0;
}
