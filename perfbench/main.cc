/**
 * @file
 * End-to-end and per-layer benchmark of the MSQ compiler.
 *
 * One process runs one workload: a fixed list of compile requests,
 * replayed on one thread, in an order drawn from --seed, through the
 * program's public entry points (Toolflow::run, ServeEngine::handleLine).
 * Every output is checked against computations made here, apart from the
 * program. See README.md for the workloads, the metrics and how steady
 * they are.
 *
 *   msq_perfbench --workload W --seed N --seconds S
 *                 [--cache FILE --cache-ref FILE]
 *   msq_perfbench_traced --workload W --seed N [--cache FILE]
 *                 [--trace-out FILE]
 *   msq_perfbench --prime FILE      write the serve-restart cache file
 *   msq_perfbench --self-test       replay rejects corrupted schedules
 *
 * The two binaries differ only in alloc_count.cc: the traced one counts
 * operator new and reports the per-layer metrics instead of the
 * end-to-end ones.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "analysis/bounds.hh"
#include "analysis/critical_path.hh"
#include "analysis/qubit_estimator.hh"
#include "analysis/qubit_mapping.hh"
#include "analysis/resource_estimator.hh"
#include "analysis/schedule_summary.hh"
#include "core/serve.hh"
#include "core/toolflow.hh"
#include "ir/dag.hh"
#include "passes/decompose_toffoli.hh"
#include "passes/flatten.hh"
#include "passes/rotation_decomposer.hh"
#include "replay.hh"
#include "sched/comm.hh"
#include "sched/core_affinity.hh"
#include "support/json.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "verify/comm_checker.hh"
#include "workloads/workloads.hh"

using namespace msq;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Set-up rounds: input builds on the compile workloads, engine loads
 * on serve-restart. setup_s is the best of them. */
constexpr unsigned setupRounds = 200;
constexpr unsigned serveSetupRounds = 3;

/** The topology of the multicore-ring workload (four one-region cores). */
const char *const ringTopology = "cores=4,k=1,shape=ring,link-bw=2";

/** One compile request: a scaled benchmark program and a scheduler. */
struct Request
{
    workloads::WorkloadSpec spec;
    SchedulerKind scheduler;

    std::string
    label() const
    {
        return spec.shortName + "/" + schedulerKindName(scheduler);
    }

    /** The same request as an msq-served NDJSON line. */
    std::string
    line(size_t id) const
    {
        return csprintf("{\"id\": %zu, \"workload\": \"%s\", "
                        "\"scheduler\": \"%s\", \"k\": 4}",
                        id, spec.shortName.c_str(),
                        schedulerKindName(scheduler));
    }
};

/** The eight scaled programs x {RCP, LPFS}, in a fixed order. */
std::vector<Request>
makeRequests()
{
    std::vector<Request> out;
    for (const auto &spec : workloads::scaledParams())
        for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs})
            out.push_back({spec, kind});
    return out;
}

/** Flat Multi-SIMD(4,inf), or the four-core ring. */
MultiSimdArch
makeArch(bool ring)
{
    MultiSimdArch arch(4);
    if (ring) {
        std::string error;
        if (!parseTopologySpec(ringTopology, arch, error)) {
            std::cerr << "perfbench: " << error << "\n";
            std::exit(2);
        }
    }
    return arch;
}

ToolflowConfig
makeConfig(const Request &request, const MultiSimdArch &arch)
{
    ToolflowConfig config;
    config.scheduler = request.scheduler;
    config.arch = arch;
    config.commMode = CommMode::Global;
    config.rotations = Toolflow::rotationPresetFor(request.spec.shortName);
    config.numThreads = 1;
    return config;
}

/** Fisher-Yates order of @p n requests for pass @p pass of @p seed. */
std::vector<size_t>
passOrder(size_t n, uint64_t seed, uint64_t pass)
{
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + pass);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

/**
 * Pins the calling thread to each allowed CPU in turn, one per timed
 * repetition, so that no request's best time comes from one slow CPU.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus.push_back(c);
    }

    void
    next()
    {
        if (cpus.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[turn++ % cpus.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    std::vector<int> cpus;
    size_t turn = 0;
};

double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** One stderr line per request: best, median and worst of its reps. */
void
reportReps(const std::string &label, std::vector<double> times)
{
    std::sort(times.begin(), times.end());
    std::cerr << csprintf("perfbench: %-14s best %9.3f ms  median %9.3f "
                          "ms  worst %9.3f ms  (%zu reps)\n",
                          label.c_str(), times.front() * 1e3,
                          times[times.size() / 2] * 1e3,
                          times.back() * 1e3, times.size());
}

/**
 * Repeat-weighted total over the call graph below @p id: each module's
 * @p local value plus each call's repeat count times its callee's total.
 * Walked here, apart from the program's own analyses.
 */
uint64_t
walkCalls(const Program &prog, ModuleId id,
          const std::function<uint64_t(const Module &, ModuleId)> &local,
          std::map<ModuleId, uint64_t> &memo)
{
    if (auto it = memo.find(id); it != memo.end())
        return it->second;
    const Module &mod = prog.module(id);
    uint64_t total = local(mod, id);
    for (const Operation &op : mod.ops())
        if (op.isCall())
            total += op.repeat * walkCalls(prog, op.callee, local, memo);
    memo[id] = total;
    return total;
}

/** What one compiled request yields once checked. */
struct Checked
{
    std::string error; ///< "" when every check passed
    uint64_t makespan = 0;
    uint64_t lowerBound = 0;
    uint64_t teleports = 0;
    uint64_t scheduleHash = 0;
};

/**
 * Check one cold compile of @p request: the lowered program @p prog,
 * its @p result, and the leaf schedules left in @p cache.
 */
Checked
checkCompile(const Request &request, const ToolflowConfig &config,
             const Program &prog, const ToolflowResult &result,
             LeafScheduleCache &cache)
{
    Checked out;
    out.makespan = result.scheduledCycles;
    out.scheduleHash = hashProgramSchedule(result.schedule);
    const MultiSimdArch &arch = config.arch;
    auto fail = [&](const std::string &what) {
        if (out.error.empty())
            out.error = request.label() + ": " + what;
    };

    std::map<ModuleId, uint64_t> gate_memo;
    const uint64_t gates = walkCalls(
        prog, prog.entry(),
        [](const Module &mod, ModuleId) {
            uint64_t gates = 0;
            for (const Operation &op : mod.ops())
                gates += op.isCall() ? 0 : 1;
            return gates;
        },
        gate_memo);
    if (gates != result.totalGates)
        fail(csprintf("gate walk %llu != totalGates %llu",
                      static_cast<unsigned long long>(gates),
                      static_cast<unsigned long long>(result.totalGates)));

    MakespanBoundAnalysis bounds(prog, arch, config.commMode);
    out.lowerBound = bounds.programLowerBound();
    if (out.lowerBound == 0 || out.lowerBound > out.makespan)
        fail(csprintf("lower bound %llu vs makespan %llu",
                      static_cast<unsigned long long>(out.lowerBound),
                      static_cast<unsigned long long>(out.makespan)));

    const ProgramSchedule &sched = result.schedule;
    std::map<ModuleId, uint64_t> tele_memo, inter_memo;
    out.teleports = walkCalls(
        prog, prog.entry(),
        [&](const Module &mod, ModuleId id) -> uint64_t {
            return mod.isLeaf() ? sched.forModule(id).comm.teleportMoves
                                : 0;
        },
        tele_memo);
    const uint64_t inter = walkCalls(
        prog, prog.entry(),
        [&](const Module &mod, ModuleId id) -> uint64_t {
            return mod.isLeaf()
                       ? sched.forModule(id).comm.interCoreTeleports
                       : 0;
        },
        inter_memo);
    if (out.teleports == 0)
        fail("no teleports");
    if (inter > out.teleports)
        fail("more inter-core teleports than teleports");

    // Replay every leaf schedule the run left in its cache.
    const auto scheduler = Toolflow(config).makeConfiguredScheduler();
    const std::string suffix =
        leafScheduleKeySuffix(scheduler->fingerprint(), arch,
                              config.commMode);
    const CoarseScheduler coarse(arch, *scheduler, config.commMode);
    const bool multi_core = arch.topology.multiCore();
    for (ModuleId id : prog.reachableModules()) {
        const Module &mod = prog.module(id);
        if (!mod.isLeaf())
            continue;
        if (multi_core && mod.numQubits() > 0) {
            const std::vector<unsigned> home =
                computeQubitMapping(mod, arch.topology);
            const unsigned cores = arch.topology.cores;
            std::vector<uint64_t> load(cores, 0);
            for (unsigned core : home)
                if (core < cores)
                    ++load[core];
                else
                    fail(mod.name() + ": qubit mapped off the machine");
            const uint64_t cap = (mod.numQubits() + cores - 1) / cores;
            for (uint64_t n : load)
                if (n > cap)
                    fail(mod.name() + ": core holds more than "
                                      "ceil(qubits/cores) qubits");
        }
        for (unsigned w : coarse.widthSweep()) {
            auto hit = cache.lookup(leafScheduleKey(mod, w, suffix));
            if (!hit || !hit->schedule) {
                fail(csprintf("%s: no schedule at width %u",
                              mod.name().c_str(), w));
                continue;
            }
            const LeafSchedule leaf(mod, hit->schedule);
            const std::string error =
                perfbench::replayLeafSchedule(mod, leaf, w, arch.d);
            if (!error.empty())
                fail(csprintf("%s width %u: %s", mod.name().c_str(), w,
                              error.c_str()));
            if (hit->stats.interCoreTeleports > hit->stats.teleportMoves)
                fail(mod.name() + ": leaf inter-core teleports exceed "
                                  "teleports");
            if (multi_core) {
                DiagnosticEngine diags;
                if (!checkCommSchedule(leaf, arch, diags) ||
                    diags.numErrors() + diags.numWarnings() > 0)
                    fail(csprintf("%s width %u: comm checker reports "
                                  "M-codes",
                                  mod.name().c_str(), w));
            }
        }
    }
    return out;
}

/** Compile @p request cold with a fresh run-local cache. */
struct Compiled
{
    Program prog;
    ToolflowResult result;
    std::shared_ptr<LeafScheduleCache> cache;
    double seconds = 0.0;
};

Compiled
compileCold(const ToolflowConfig &config, Program prog,
            CpuRotation *rotation)
{
    Compiled out;
    out.prog = std::move(prog);
    out.cache = std::make_shared<LeafScheduleCache>();
    ToolflowConfig run_config = config;
    run_config.sharedLeafCache = out.cache;
    const Toolflow toolflow(run_config);
    if (rotation)
        rotation->next();
    const auto start = Clock::now();
    out.result = toolflow.run(out.prog);
    out.seconds = secondsSince(start);
    return out;
}

/** One metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = csprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        out += csprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
    out += "}}";
    std::cout << out << std::endl;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    std::string cache;    ///< serve-restart: the engine's cache file
    std::string cacheRef; ///< serve-restart: the primed original
    std::string traceOut; ///< traced run: span file
    std::string prime;    ///< --prime: cache file to write
    bool selfTest = false;
};

/** The bytes of @p path (empty when unreadable). */
std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Whether two serve responses carry the same makespan and hash. */
bool
sameSchedule(const std::string &a, const std::string &b)
{
    std::string error;
    const auto pa = parseJson(a, error);
    const auto pb = parseJson(b, error);
    return pa && pb &&
           pa->get("makespan").asUnsigned() ==
               pb->get("makespan").asUnsigned() &&
           pa->get("schedule_hash").asString() ==
               pb->get("schedule_hash").asString();
}

/** Outcome shared by the end-to-end workloads. */
struct Run
{
    bool correct = true;
    std::vector<std::string> failures; ///< one per failed request
    std::vector<double> makespans, gaps, teleports;
    double passSeconds = 0.0;
    double setupSeconds = 0.0;
    double peakRss = 0.0;
    uint64_t passes = 0;

    void
    record(const Checked &checked)
    {
        if (!checked.error.empty()) {
            failures.push_back(checked.error);
            return;
        }
        makespans.push_back(static_cast<double>(checked.makespan));
        gaps.push_back(static_cast<double>(checked.makespan) /
                       static_cast<double>(checked.lowerBound));
        teleports.push_back(static_cast<double>(checked.teleports));
    }
};

/** cold-compile and multicore-ring: Toolflow::run per request. */
Run
runCompileWorkload(const Args &args, bool ring)
{
    Run run;
    const std::vector<Request> requests = makeRequests();
    const MultiSimdArch arch = makeArch(ring);

    // Set-up: every request's input program, built in setupRounds
    // rounds and again in every later pass. Each build is timed; a
    // request counts at its best build, as in pass_s.
    CpuRotation rotation;
    std::vector<double> build_best(requests.size(), HUGE_VAL);
    auto build = [&](size_t i) {
        const auto t0 = Clock::now();
        Program prog = requests[i].spec.build();
        build_best[i] = std::min(build_best[i], secondsSince(t0));
        return prog;
    };
    std::vector<Program> inputs(requests.size());
    for (unsigned round = 0; round < setupRounds; ++round) {
        rotation.next();
        for (size_t i = 0; i < requests.size(); ++i)
            inputs[i] = build(i);
    }

    std::vector<std::vector<double>> times(requests.size());
    std::vector<Checked> first(requests.size());
    const auto start = Clock::now();
    for (uint64_t pass = 0;
         pass == 0 || secondsSince(start) < args.seconds; ++pass) {
        for (size_t i : passOrder(requests.size(), args.seed, pass)) {
            const Request &request = requests[i];
            const ToolflowConfig config = makeConfig(request, arch);
            Program prog = pass == 0 ? std::move(inputs[i]) : build(i);
            Compiled compiled =
                compileCold(config, std::move(prog), &rotation);
            times[i].push_back(compiled.seconds);
            if (pass == 0) {
                first[i] = checkCompile(request, config, compiled.prog,
                                        compiled.result, *compiled.cache);
            } else if (compiled.result.scheduledCycles !=
                           first[i].makespan ||
                       hashProgramSchedule(compiled.result.schedule) !=
                           first[i].scheduleHash) {
                first[i].error = request.label() +
                                 ": schedule differs between passes";
            }
        }
        run.passes = pass + 1;
    }
    run.peakRss = peakRssMiB();
    for (size_t i = 0; i < requests.size(); ++i) {
        run.setupSeconds += build_best[i];
        run.record(first[i]);
        reportReps(requests[i].label(), times[i]);
        run.passSeconds +=
            *std::min_element(times[i].begin(), times[i].end());
    }
    return run;
}

/** serve-restart: handleLine per request against a warm engine. */
Run
runServeWorkload(const Args &args)
{
    Run run;
    const std::vector<Request> requests = makeRequests();

    // Set-up: engine construction plus loading the earlier life's cache,
    // repeated serveSetupRounds times; the last round's engine serves.
    ServeOptions options;
    options.numThreads = 1;
    options.cachePath = args.cache;
    CpuRotation rotation;
    std::unique_ptr<ServeEngine> owner;
    size_t loaded = 0;
    run.setupSeconds = HUGE_VAL;
    for (unsigned round = 0; round < serveSetupRounds; ++round) {
        owner.reset();
        rotation.next();
        const auto t0 = Clock::now();
        owner = std::make_unique<ServeEngine>(options);
        loaded = owner->loadCache();
        run.setupSeconds = std::min(run.setupSeconds, secondsSince(t0));
    }
    ServeEngine &engine = *owner;
    if (loaded == 0 || engine.diags().numErrors() > 0) {
        std::cerr << "perfbench: cache file " << args.cache
                  << " did not load\n";
        run.correct = false;
        return run;
    }

    std::vector<std::vector<double>> times(requests.size());
    std::vector<double> save_times;
    std::vector<std::string> first(requests.size());
    std::vector<std::string> errors(requests.size());
    const auto start = Clock::now();
    for (uint64_t pass = 0;
         pass == 0 || secondsSince(start) < args.seconds; ++pass) {
        for (size_t i : passOrder(requests.size(), args.seed, pass)) {
            const std::string line = requests[i].line(i);
            rotation.next();
            const auto t0 = Clock::now();
            std::string response = engine.handleLine(line);
            times[i].push_back(secondsSince(t0));
            if (pass == 0) {
                first[i] = std::move(response);
            } else if (!sameSchedule(response, first[i])) {
                errors[i] = requests[i].label() +
                            ": response differs between passes";
            }
        }
        rotation.next();
        const auto t0 = Clock::now();
        const size_t saved = engine.saveCache();
        save_times.push_back(secondsSince(t0));
        if (saved != loaded) {
            std::cerr << "perfbench: saveCache wrote " << saved << " of "
                      << loaded << " entries\n";
            run.correct = false;
        }
        run.passes = pass + 1;
    }
    run.peakRss = peakRssMiB();
    for (size_t i = 0; i <= requests.size(); ++i) {
        const std::vector<double> &t =
            i < requests.size() ? times[i] : save_times;
        reportReps(i < requests.size() ? requests[i].label() : "saveCache",
                   t);
        run.passSeconds += *std::min_element(t.begin(), t.end());
    }

    if (engine.cache().misses() != 0 || engine.cache().hitRate() != 1.0) {
        std::cerr << "perfbench: warm engine missed its cache\n";
        run.correct = false;
    }
    const std::vector<char> saved = readFile(args.cache);
    if (saved.empty() || saved != readFile(args.cacheRef)) {
        std::cerr << "perfbench: the saved cache differs from the file "
                     "it was loaded from\n";
        run.correct = false;
    }

    // Each warm response against the same request compiled cold here.
    const MultiSimdArch arch = makeArch(false);
    for (size_t i = 0; i < requests.size(); ++i) {
        const Request &request = requests[i];
        const ToolflowConfig config = makeConfig(request, arch);
        Compiled compiled =
            compileCold(config, request.spec.build(), nullptr);
        Checked checked = checkCompile(request, config, compiled.prog,
                                       compiled.result, *compiled.cache);
        std::string error;
        auto parsed = parseJson(first[i], error);
        if (!parsed || !parsed->get("ok").asBool()) {
            checked.error = request.label() + ": response not ok: " +
                            first[i];
        } else {
            const JsonValue &r = *parsed;
            const std::string hash =
                csprintf("%016llx", static_cast<unsigned long long>(
                                        checked.scheduleHash));
            if (r.get("makespan").asUnsigned() != checked.makespan ||
                r.get("schedule_hash").asString() != hash)
                checked.error = request.label() +
                                ": warm response differs from cold compile";
            if (r.get("cache").get("misses").asUnsigned(1) != 0)
                checked.error = request.label() + ": warm request missed";
            const uint64_t bound = r.get("lower_bound").asUnsigned();
            if (bound == 0 || bound > checked.makespan)
                checked.error = request.label() +
                                ": response lower bound above makespan";
            checked.lowerBound = bound;
        }
        if (!errors[i].empty())
            checked.error = errors[i];
        run.record(checked);
    }
    return run;
}

/** --prime: one earlier daemon life that writes the cache file. */
int
prime(const std::string &path)
{
    ServeOptions options;
    options.numThreads = 1;
    options.cachePath = path;
    ServeEngine engine(options);
    const std::vector<Request> requests = makeRequests();
    for (size_t i = 0; i < requests.size(); ++i) {
        const std::string response = engine.handleLine(requests[i].line(i));
        if (response.find("\"ok\": true") == std::string::npos) {
            std::cerr << "perfbench: prime request failed: " << response
                      << "\n";
            return 1;
        }
    }
    const size_t saved = engine.saveCache();
    if (saved == 0 || saved == SIZE_MAX) {
        std::cerr << "perfbench: could not write " << path << "\n";
        return 1;
    }
    std::cerr << "perfbench: primed " << path << " with " << saved
              << " entries\n";
    return 0;
}

// ---------------------------------------------------------------------
// Traced run: each layer timed around its own public calls.
// ---------------------------------------------------------------------

/**
 * Per-layer time and allocations of one traced run. Every layer call is
 * also a span of a TraceRecorder, written out as a Chrome trace.
 */
class Tracer
{
  public:
    struct Layer
    {
        double ms = 0.0;
        uint64_t allocs = 0;
        uint64_t bytes = 0;
    };

    Tracer() { recorder.setEnabled(true); }

    /** Run @p fn as one span of @p layer for request @p request. */
    template <typename Fn>
    auto
    span(const std::string &layer, int64_t request, Fn &&fn)
    {
        TraceSpan trace(recorder, layer);
        trace.setArgs(csprintf("\"request\": %lld",
                               static_cast<long long>(request)));
        const Meter meter(layers[layer]);
        return fn();
    }

    const Layer &
    layer(const std::string &name)
    {
        return layers[name];
    }

    void
    write(const std::string &path)
    {
        std::ofstream out(path);
        recorder.writeChromeTrace(out);
    }

  private:
    /** Adds the time and allocations of its lifetime to one layer. */
    class Meter
    {
      public:
        explicit Meter(Layer &layer)
            : layer(layer), a0(perfbench::allocCount()),
              b0(perfbench::allocBytes()), t0(Clock::now())
        {
        }

        ~Meter()
        {
            layer.ms += std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count();
            layer.allocs += perfbench::allocCount() - a0;
            layer.bytes += perfbench::allocBytes() - b0;
        }

      private:
        Layer &layer;
        const uint64_t a0, b0;
        const Clock::time_point t0;
    };

    TraceRecorder recorder;
    std::map<std::string, Layer> layers;
};

/** Best of @p reps wall times of @p fn, in milliseconds. */
template <typename Fn>
double
bestMs(unsigned reps, Fn &&fn)
{
    double best = HUGE_VAL;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        best = std::min(best, std::chrono::duration<double, std::milli>(
                                  Clock::now() - t0)
                                  .count());
    }
    return best;
}

int
runTraced(const Args &args)
{
    const bool serve = args.workload == "serve-restart";
    const bool ring = args.workload == "multicore-ring";
    const std::vector<Request> requests = makeRequests();
    const MultiSimdArch arch = makeArch(ring);
    const CommMode mode = CommMode::Global;
    Tracer tracer;
    std::map<std::string, double> counts;
    bool correct = true;
    uint64_t failed = 0;
    LeafScheduleCache all_leaves; ///< every leaf result of the run

    for (size_t i : passOrder(requests.size(), args.seed, 0)) {
        const Request &request = requests[i];
        const int64_t id = static_cast<int64_t>(i);
        Program prog = tracer.span("workloads", id,
                                   [&] { return request.spec.build(); });

        // Passes, one by one, as Toolflow::run orders them.
        tracer.span("passes.decompose_toffoli", id,
                    [&] { DecomposeToffoliPass().run(prog); });
        tracer.span("passes.decompose_rotations", id, [&] {
            RotationDecomposerPass(
                Toolflow::rotationPresetFor(request.spec.shortName))
                .run(prog);
        });
        tracer.span("passes.flatten", id, [&] {
            FlattenPass(ToolflowConfig{}.flattenThreshold).run(prog);
        });
        for (ModuleId m : prog.reachableModules())
            counts["passes.ops_after"] +=
                static_cast<double>(prog.module(m).numOps());

        tracer.span("analysis.critical_path", id,
                    [&] { return CriticalPathAnalysis(prog)
                                     .programCriticalPath(); });
        tracer.span("analysis.estimators", id, [&] {
            return ResourceEstimator(prog).programGates() +
                   QubitEstimator(prog).programQubits();
        });

        // Leaf layers over the distinct (module, width) tasks, as the
        // coarse scheduler meets them through a run-local cache.
        const ToolflowConfig config = makeConfig(request, arch);
        const auto scheduler = Toolflow(config).makeConfiguredScheduler();
        const std::string suffix =
            leafScheduleKeySuffix(scheduler->fingerprint(), arch, mode);
        const CoarseScheduler sweep(arch, *scheduler, mode);
        const std::string sched_layer =
            request.scheduler == SchedulerKind::Rcp ? "sched.rcp"
                                                    : "sched.lpfs";
        std::set<std::string> seen_tasks;
        std::set<uint64_t> seen_modules;
        for (ModuleId m : prog.bottomUpOrder()) {
            const Module &mod = prog.module(m);
            if (!mod.isLeaf())
                continue;
            if (seen_modules.insert(mod.structuralHash()).second) {
                const DepDag dag = tracer.span(
                    "ir.dag_build", id, [&] { return DepDag::build(mod); });
                for (uint32_t n = 0; n < dag.numNodes(); ++n)
                    counts["ir.dag_edges"] +=
                        static_cast<double>(dag.succs(n).size());
                const std::vector<unsigned> home =
                    tracer.span("mapping.compute", id, [&] {
                        return computeQubitMapping(mod, arch.topology);
                    });
                counts["mapping.cut_weight"] +=
                    static_cast<double>(mappingCutWeight(mod, home));
            }
            for (unsigned w : sweep.widthSweep()) {
                if (!seen_tasks.insert(leafScheduleKey(mod, w, suffix))
                         .second)
                    continue;
                MultiSimdArch sub = arch;
                sub.k = w;
                LeafSchedule sched = tracer.span(
                    sched_layer, id,
                    [&] { return scheduler->schedule(mod, sub); });
                counts["sched.leaf_tasks"] += 1;
                counts["sched.timesteps"] +=
                    static_cast<double>(sched.computeTimesteps());
                tracer.span("affinity.apply", id, [&] {
                    return applyCoreAffinity(
                        LeafSchedule(mod, sched.sharedBuffer()), sub);
                });
                const CommStats stats = tracer.span("comm.annotate", id, [&] {
                    return CommunicationAnalyzer(arch, mode).annotate(sched);
                });
                counts["comm.teleports"] +=
                    static_cast<double>(stats.teleportMoves);
                counts["comm.intercore_teleports"] +=
                    static_cast<double>(stats.interCoreTeleports);
                tracer.span("bounds.leaf", id,
                            [&] { return computeLeafBounds(mod, sub); });
                tracer.span("summary.leaf", id, [&] {
                    return summarizeLeafSchedule(sched, arch);
                });
            }
        }
        tracer.span("bounds.program", id, [&] {
            return MakespanBoundAnalysis(prog, arch, mode)
                .programLowerBound();
        });

        // The coarse scheduler cold, then the same call warm (stitch).
        auto cache = std::make_shared<LeafScheduleCache>();
        CoarseScheduler::Options coarse_options;
        coarse_options.numThreads = 1;
        coarse_options.leafCache = cache;
        const CoarseScheduler coarse(arch, *scheduler, mode, coarse_options);
        const ProgramSchedule cold = tracer.span(
            "coarse.cold", id, [&] { return coarse.schedule(prog); });
        const ProgramSchedule warm = tracer.span(
            "coarse.stitch", id, [&] { return coarse.schedule(prog); });
        counts["cache.lookups"] +=
            static_cast<double>(cache->hits() + cache->misses());
        counts["cache.hits"] += static_cast<double>(cache->hits());
        if (hashProgramSchedule(cold) != hashProgramSchedule(warm)) {
            std::cerr << "perfbench: " << request.label()
                      << ": warm coarse schedule differs from cold\n";
            ++failed;
        }
        for (auto &[key, value] : cache->snapshotEntries())
            all_leaves.insertLoaded(key, value);
    }

    // Cache I/O. serve-restart loads the file its earlier daemon life
    // wrote and saves it back, as its passes do; the other workloads
    // persist every leaf result of this run and load it back. Either
    // way the engine that serves the warm requests below is left warm.
    const std::string cache_file =
        serve ? args.cache : args.traceOut + ".msqc";
    if (!serve) {
        tracer.span("cache_io.save", -1,
                    [&] { return all_leaves.saveTo(cache_file); });
    }
    ServeOptions options;
    options.numThreads = 1;
    options.cachePath = cache_file;
    if (ring)
        options.topology = ringTopology;
    ServeEngine engine(options);
    const size_t loaded =
        tracer.span("cache_io.load", -1, [&] { return engine.loadCache(); });
    if (serve) {
        tracer.span("cache_io.save", -1,
                    [&] { return engine.saveCache(); });
    }
    const uint64_t file_bytes = std::filesystem::file_size(cache_file);
    if (!serve)
        std::remove(cache_file.c_str());
    counts["cache_io.entries"] = static_cast<double>(loaded);
    counts["cache_io.file_bytes"] = static_cast<double>(file_bytes);
    if (loaded != all_leaves.size()) {
        std::cerr << "perfbench: the cache file holds " << loaded
                  << " entries, the run computed " << all_leaves.size()
                  << "\n";
        correct = false;
    }

    // Serve: warm handleLine, and apart from it on the same request its
    // own Toolflow::run and bound analysis (best of three each).
    std::shared_ptr<LeafScheduleCache> engine_cache(
        std::shared_ptr<void>(), &engine.cache());
    double request_ms = 0.0, toolflow_ms = 0.0, bound_ms = 0.0;
    for (size_t i : passOrder(requests.size(), args.seed, 0)) {
        const Request &request = requests[i];
        const std::string line = requests[i].line(i);
        bool ok = true;
        const double req_ms = tracer.span("serve.request", int64_t(i), [&] {
            return bestMs(3, [&] {
                if (engine.handleLine(line).find("\"ok\": true") ==
                    std::string::npos)
                    ok = false;
            });
        });
        if (!ok)
            ++failed;
        request_ms += req_ms;
        ToolflowConfig config = makeConfig(request, arch);
        config.sharedLeafCache = engine_cache;
        double tf_best = HUGE_VAL, b_best = HUGE_VAL;
        for (int r = 0; r < 3; ++r) {
            Program prog = request.spec.build();
            tf_best = std::min(
                tf_best, bestMs(1, [&] { Toolflow(config).run(prog); }));
            b_best = std::min(b_best, bestMs(1, [&] {
                MakespanBoundAnalysis(prog, arch, mode).programLowerBound();
            }));
        }
        toolflow_ms += tf_best;
        bound_ms += b_best;
    }
    if (engine.cache().misses() != 0) {
        std::cerr << "perfbench: traced warm requests missed the cache\n";
        correct = false;
    }

    std::vector<Metric> metrics;
    auto ms = [&](const std::string &name, const std::string &layer) {
        metrics.push_back({name, tracer.layer(layer).ms, "ms"});
    };
    auto count = [&](const std::string &name) {
        metrics.push_back({name, counts[name], "count"});
    };
    ms("workloads.generate_ms", "workloads");
    ms("passes.decompose_toffoli_ms", "passes.decompose_toffoli");
    ms("passes.decompose_rotations_ms", "passes.decompose_rotations");
    ms("passes.flatten_ms", "passes.flatten");
    count("passes.ops_after");
    ms("ir.dag_build_ms", "ir.dag_build");
    count("ir.dag_edges");
    ms("analysis.critical_path_ms", "analysis.critical_path");
    ms("analysis.estimators_ms", "analysis.estimators");
    ms("sched.rcp_ms", "sched.rcp");
    ms("sched.lpfs_ms", "sched.lpfs");
    count("sched.leaf_tasks");
    count("sched.timesteps");
    ms("comm.annotate_ms", "comm.annotate");
    count("comm.teleports");
    ms("mapping.compute_ms", "mapping.compute");
    count("mapping.cut_weight");
    ms("affinity.apply_ms", "affinity.apply");
    count("comm.intercore_teleports");
    ms("bounds.leaf_ms", "bounds.leaf");
    ms("bounds.program_ms", "bounds.program");
    ms("summary.leaf_ms", "summary.leaf");
    ms("coarse.cold_ms", "coarse.cold");
    ms("coarse.stitch_ms", "coarse.stitch");
    count("cache.lookups");
    count("cache.hits");
    ms("cache_io.load_ms", "cache_io.load");
    ms("cache_io.save_ms", "cache_io.save");
    count("cache_io.entries");
    metrics.push_back({"cache_io.file_bytes", counts["cache_io.file_bytes"],
                       "bytes"});
    metrics.push_back({"serve.request_ms", request_ms, "ms"});
    metrics.push_back(
        {"serve.self_ms", request_ms - toolflow_ms - bound_ms, "ms"});
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        alloc_layers = {
            {"workloads", {"workloads"}},
            {"passes",
             {"passes.decompose_toffoli", "passes.decompose_rotations",
              "passes.flatten"}},
            {"ir", {"ir.dag_build"}},
            {"sched", {"sched.rcp", "sched.lpfs"}},
            {"comm", {"comm.annotate"}},
            {"mapping", {"mapping.compute", "affinity.apply"}},
            {"bounds", {"bounds.leaf", "bounds.program"}},
            {"summary", {"summary.leaf"}},
            {"coarse", {"coarse.cold", "coarse.stitch"}},
            {"cache_io", {"cache_io.load", "cache_io.save"}},
        };
    for (const auto &[name, layers] : alloc_layers) {
        double allocs = 0, bytes = 0;
        for (const std::string &layer : layers) {
            allocs += static_cast<double>(tracer.layer(layer).allocs);
            bytes += static_cast<double>(tracer.layer(layer).bytes);
        }
        metrics.push_back({"alloc.count." + name, allocs, "count"});
        metrics.push_back({"alloc.bytes." + name, bytes, "bytes"});
    }
    if (!args.traceOut.empty())
        tracer.write(args.traceOut);
    printResult(correct, requests.size(), failed, metrics);
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "perfbench: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::stoull(value());
        else if (flag == "--seconds")
            args.seconds = std::stod(value());
        else if (flag == "--cache")
            args.cache = value();
        else if (flag == "--cache-ref")
            args.cacheRef = value();
        else if (flag == "--trace-out")
            args.traceOut = value();
        else if (flag == "--prime")
            args.prime = value();
        else if (flag == "--self-test")
            args.selfTest = true;
        else {
            std::cerr << "perfbench: unknown argument " << flag << "\n";
            std::exit(2);
        }
    }
    return args;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::string self_test = perfbench::replaySelfTest();
    if (args.selfTest) {
        std::cout << (self_test.empty() ? "replay self-test passed"
                                        : "replay self-test FAILED: " +
                                              self_test)
                  << "\n";
        return self_test.empty() ? 0 : 1;
    }
    if (!args.prime.empty())
        return prime(args.prime);

    const std::set<std::string> known = {"cold-compile", "serve-restart",
                                         "multicore-ring"};
    if (!known.count(args.workload)) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }
    if (args.workload == "serve-restart" &&
        (args.cache.empty() || args.cacheRef.empty())) {
        std::cerr << "perfbench: serve-restart needs --cache and "
                     "--cache-ref\n";
        return 2;
    }
    if (perfbench::traced())
        return runTraced(args);

    Run run = args.workload == "serve-restart"
                  ? runServeWorkload(args)
                  : runCompileWorkload(args,
                                       args.workload == "multicore-ring");
    if (!self_test.empty()) {
        std::cerr << "perfbench: replay self-test failed: " << self_test
                  << "\n";
        run.correct = false;
    }
    for (const std::string &failure : run.failures)
        std::cerr << "perfbench: FAILED " << failure << "\n";
    std::cerr << "perfbench: " << args.workload << ": " << run.passes
              << " pass(es)\n";
    printResult(run.correct, makeRequests().size(), run.failures.size(),
                {{"pass_s", run.passSeconds, "s"},
                 {"setup_s", run.setupSeconds, "s"},
                 {"peak_rss_mib", run.peakRss, "MiB"},
                 {"makespan_cycles", geomean(run.makespans), "cycles"},
                 {"bound_gap", geomean(run.gaps), "ratio"},
                 {"teleports", geomean(run.teleports), "count"}});
    return 0;
}
