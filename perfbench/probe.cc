/**
 * @file
 * sos_probe: the benchmark's outside-in tracer.
 *
 * Drives the simulator through the public API of each module, the way
 * the shipped harnesses do, and records one span per call: name,
 * start, end, parent and the process CPU time at both ends (so a span
 * knows how many cores were busy under it). Nothing inside src/ is
 * instrumented; every span times a call from the caller's side. Spans
 * stay in memory and are written as one JSON document at exit.
 *
 *   sos_probe <mode> <workload> --spans FILE [--set key=value]...
 *             [--nodes N --dispatch P --process P --arrivals N
 *              --mean-job C --mean-interarrival C --classes SPEC]
 *
 * workload: fig1    every Table 1 mix, as fig1_ws_range runs them;
 *           cluster one Cluster, as `sossim cluster` builds it.
 * mode:     setup   construct what the harness builds before its
 *                   first candidate or job is simulated, then stop;
 *           run     the whole harness path (the cluster run also
 *                   reports every arrival's response time);
 *           trace   run, then one timed probe per layer (core
 *                   pipeline, functional executor, trace generator,
 *                   cache hierarchy, calibrator, dispatcher).
 *
 * The simulation config comes from the same SOS_* environment and
 * --set keys the harnesses read, so a probe run computes exactly what
 * the harness computes for the same seed.
 */

#include <time.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/functional_executor.hh"
#include "cpu/machine.hh"
#include "cpu/sampling.hh"
#include "mem/cache_hierarchy.hh"
#include "metrics/calibrator.hh"
#include "sched/job.hh"
#include "sim/batch_experiment.hh"
#include "sim/config_env.hh"
#include "sim/experiment_defs.hh"
#include "sim/params_io.hh"
#include "stats/json.hh"
#include "trace/trace_generator.hh"
#include "trace/workload_library.hh"

namespace {

using namespace sos;

/** Process CPU seconds, all threads (sweep workers included). */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** In-memory span log; spans nest through an open-span stack. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0.0, end = 0.0;       ///< seconds since launch
        double cpuStart = 0.0, cpuEnd = 0.0; ///< process CPU seconds
        std::map<std::string, double> counts;
    };

    int
    open(const std::string &name)
    {
        Span span;
        span.name = name;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.cpuStart = processCpuSeconds();
        span.start = now();
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        SOS_ASSERT(!stack_.empty() && stack_.back() == id,
                   "spans must close innermost first");
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = now();
        span.cpuEnd = processCpuSeconds();
        stack_.pop_back();
    }

    /** Attach a count to span @p id (work done under it). */
    void
    count(int id, const std::string &name, double value)
    {
        spans_[static_cast<std::size_t>(id)].counts[name] += value;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes at scope exit. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name)
        : log_(log), id_(log.open(name))
    {
    }
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void count(const std::string &name, double value)
    {
        log_.count(id_, name, value);
    }

  private:
    SpanLog &log_;
    int id_;
};

/** Parsed command line. */
struct Options
{
    std::string mode, workload, spansPath;
    SimConfig config;
    ClusterConfig cluster;
};

std::vector<ArrivalClass>
parseClasses(const std::string &spec)
{
    std::vector<ArrivalClass> classes;
    std::size_t start = 0;
    while (start < spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(start, end - start);
        const std::size_t first = entry.find(':');
        const std::size_t second = first == std::string::npos
                                       ? std::string::npos
                                       : entry.find(':', first + 1);
        if (second == std::string::npos)
            fatal("class entry '", entry,
                  "' is not name:weight:sizeFactor");
        ArrivalClass klass;
        klass.name = entry.substr(0, first);
        klass.weight =
            std::stod(entry.substr(first + 1, second - first - 1));
        klass.sizeFactor = std::stod(entry.substr(second + 1));
        classes.push_back(std::move(klass));
        start = end + 1;
    }
    return classes;
}

Options
parseOptions(int argc, char **argv)
{
    if (argc < 3)
        fatal("usage: sos_probe setup|run|trace fig1|cluster "
              "--spans FILE [--set key=value]...");
    Options options;
    options.mode = argv[1];
    options.workload = argv[2];
    options.config = benchConfigFromEnv();
    for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal(flag, " needs a value");
        const std::string value = argv[++i];
        ClusterConfig &cc = options.cluster;
        if (flag == "--set")
            applyOverride(options.config, value);
        else if (flag == "--spans")
            options.spansPath = value;
        else if (flag == "--nodes")
            cc.numNodes = std::stoi(value);
        else if (flag == "--dispatch")
            cc.dispatch = value;
        else if (flag == "--process")
            cc.process = value;
        else if (flag == "--arrivals")
            cc.numJobs = std::stoi(value);
        else if (flag == "--mean-job")
            cc.meanJobPaperCycles = std::stoull(value);
        else if (flag == "--mean-interarrival")
            cc.meanInterarrivalPaper = std::stoull(value);
        else if (flag == "--classes")
            cc.classes = parseClasses(value);
        else
            fatal("unknown argument '", flag, "'");
    }
    if (options.mode != "setup" && options.mode != "run" &&
        options.mode != "trace")
        fatal("unknown mode '", options.mode, "'");
    if (options.workload != "fig1" && options.workload != "cluster")
        fatal("unknown workload '", options.workload, "'");
    if (options.spansPath.empty())
        fatal("--spans FILE is required");
    // The same derivation `sossim cluster` applies to the run seed.
    options.cluster.seed = options.config.seed ^ 0xc105edULL;
    return options;
}

/** Results run.py cross-checks against the harness manifest. */
struct Outcome
{
    struct Mix
    {
        std::string label;
        std::uint64_t candidates = 0;
        double best = 0.0, worst = 0.0, average = 0.0;
    };
    std::vector<Mix> mixes;
    std::vector<std::uint64_t> responses; ///< by arrival index
};

/** fig1_ws_range's loop: per mix, construct, sample, validate. */
void
runFig1(SpanLog &log, const Options &options, Outcome &outcome)
{
    const SimConfig &config = options.config;
    const bool setup_only = options.mode == "setup";
    Scope root(log, "sim.fig1");
    // (workload, threads, level): the distinct solo references the
    // constructors ask the calibrator for.
    std::set<std::tuple<std::string, int, int>> references;
    std::vector<std::unique_ptr<BatchExperiment>> kept;
    for (const ExperimentSpec &spec : paperExperiments()) {
        {
            Scope span(log, "sim.calibrate");
            kept.push_back(std::make_unique<BatchExperiment>(spec, config));
        }
        BatchExperiment &exp = *kept.back();
        for (int j = 0; j < exp.mix().numJobs(); ++j) {
            references.emplace(exp.mix().job(j).name(),
                               exp.mix().job(j).numThreads(), spec.level);
        }
        if (setup_only)
            continue;
        {
            Scope span(log, "sim.sample");
            exp.runSamplePhase();
            span.count("candidates",
                       static_cast<double>(exp.schedules().size()));
        }
        {
            Scope span(log, "sim.symbios");
            exp.runSymbiosValidation();
            span.count("candidates",
                       static_cast<double>(exp.schedules().size()));
        }
        outcome.mixes.push_back({spec.label, exp.schedules().size(),
                                 exp.bestWs(), exp.worstWs(),
                                 exp.averageWs()});
    }
    root.count("solo_refs", static_cast<double>(references.size()));
    const SamplingStats &sampling = samplingStats();
    root.count("detailed_cycles",
               static_cast<double>(sampling.detailedCycles.load()));
    root.count("fastforward_cycles",
               static_cast<double>(sampling.fastForwardCycles.load()));
}

/** `sossim cluster`: construct, then drain the arrival trace. */
void
runCluster(SpanLog &log, const Options &options, Outcome &outcome)
{
    const SimConfig &config = options.config;
    const ClusterConfig &cc = options.cluster;
    Scope root(log, "cluster");
    std::optional<Cluster> cluster;
    {
        Scope span(log, "cluster.setup");
        cluster.emplace(config, cc);
        span.count("arrivals",
                   static_cast<double>(cluster->arrivals().size()));
    }
    // Solo references behind the capacity probe and the job sizes:
    // one per open-system workload at the nodes' SMT level.
    root.count("solo_refs",
               static_cast<double>(openSystemWorkloads().size()));
    if (options.mode == "setup")
        return;
    // The arrival generation the constructor ends with, repeated with
    // the same spec (the calibration it needs is now cached).
    std::vector<ClusterArrival> arrivals;
    {
        Scope span(log, "cluster.arrivals");
        ArrivalSpec spec;
        spec.process = cc.process;
        spec.numJobs = cc.numJobs;
        spec.meanInterarrivalCycles = std::max(
            1.0, static_cast<double>(cluster->meanInterarrivalPaper()) /
                     static_cast<double>(config.cycleScale));
        spec.meanJobCycles =
            static_cast<double>(config.scaled(cc.meanJobPaperCycles));
        spec.level = cc.level;
        spec.classes = cc.classes;
        spec.seed = cc.seed;
        arrivals = makeClusterArrivals(config, spec);
        span.count("arrivals", static_cast<double>(arrivals.size()));
    }
    SOS_ASSERT(arrivals == cluster->arrivals(),
               "probe arrivals differ from the cluster's");
    Scope span(log, "cluster.run");
    const ClusterResult result = cluster->run();
    span.count("epochs", static_cast<double>(result.epochs));
    span.count("completed", static_cast<double>(result.completed));
    double busy = 0.0, sample = 0.0, phases = 0.0, dispatched = 0.0;
    double util_sum = 0.0, util_min = 1.0;
    for (const ClusterNodeSummary &node : result.nodes) {
        busy += static_cast<double>(node.busyCycles);
        sample += static_cast<double>(node.sampleCycles);
        phases += node.samplePhases;
        dispatched += static_cast<double>(node.dispatched);
        util_sum += node.utilization;
        util_min = std::min(util_min, node.utilization);
    }
    span.count("dispatched", dispatched);
    span.count("busy_cycles", busy);
    span.count("sample_cycles", sample);
    span.count("sample_phases", phases);
    span.count("util_mean",
               util_sum / static_cast<double>(result.nodes.size()));
    span.count("util_min", util_min);
    outcome.responses = result.responseByArrival;
}

/** Library workloads bound round-robin by the core probes. */
const char *const probeWorkloads[] = {"EP", "FP", "MG", "GCC", "GO",
                                      "WAVE"};

/** A single-core machine with @p level fixed-seed jobs attached. */
struct BoundCore
{
    explicit BoundCore(int level)
    {
        CoreParams params;
        params.numContexts = level;
        machine = std::make_unique<Machine>(params, MemParams{});
        for (int t = 0; t < level; ++t) {
            jobs.push_back(std::make_unique<Job>(
                static_cast<std::uint32_t>(t + 1),
                WorkloadLibrary::instance().get(probeWorkloads[t % 6]),
                0xbe4c0 + static_cast<std::uint64_t>(t), 1, false));
            ThreadBinding binding;
            binding.gen = &jobs.back()->generator(0);
            binding.asid = jobs.back()->asid();
            core().attachThread(t, binding);
        }
    }
    SmtCore &core() { return machine->core(0); }

    std::vector<std::unique_ptr<Job>> jobs;
    std::unique_ptr<Machine> machine;
};

/** Timed calls per layer probe; run.py takes their median. */
constexpr int probeReps = 3;

/** One timed probe per layer, each on fixed inputs. */
void
runLayerProbes(SpanLog &log, const SimConfig &config)
{
    Scope root(log, "layers");
    std::uint64_t sink = 0;

    // cpu: the detailed pipeline (SmtCore::run) at each SMT level.
    PerfCounters signature;
    for (int level : {1, 2, 4, 6}) {
        BoundCore bound(level);
        PerfCounters warm;
        bound.core().run(20000, warm);
        for (int rep = 0; rep < probeReps; ++rep) {
            PerfCounters pc;
            Scope span(log, "cpu.detailed.smt" + std::to_string(level));
            bound.core().run(100000, pc);
            span.count("uops", static_cast<double>(pc.retired));
            if (level == 4)
                signature = pc;
        }
    }

    // cpu: the functional fast-forward (FunctionalExecutor::run) at
    // the rates a detailed window measured.
    {
        BoundCore bound(2);
        PerfCounters detail;
        bound.core().run(40000, detail);
        FunctionalExecutor::Rates rates{};
        for (int s = 0; s < 2; ++s)
            rates[static_cast<std::size_t>(s)] =
                static_cast<double>(
                    detail.slotRetired[static_cast<std::size_t>(s)]) /
                static_cast<double>(detail.cycles);
        bound.core().drainInFlight(detail);
        FunctionalExecutor fx(bound.core());
        for (int rep = 0; rep < probeReps; ++rep) {
            PerfCounters pc;
            Scope span(log, "cpu.functional");
            fx.run(500000, rates, pc);
            span.count("uops", static_cast<double>(pc.retired));
        }
    }

    // trace: micro-op generation (TraceGenerator::next).
    {
        TraceGenerator gen(WorkloadLibrary::instance().get("GCC"), 0x7ace);
        constexpr std::uint64_t uops = 1000000;
        for (int rep = 0; rep < probeReps; ++rep) {
            Scope span(log, "trace.next");
            for (std::uint64_t i = 0; i < uops; ++i)
                sink += gen.next().addr;
            span.count("uops", static_cast<double>(uops));
        }
    }

    // mem: data accesses (CacheHierarchy::dataAccess) over a 1 MiB
    // working set, 16x the L1D and half the L2.
    {
        const MemParams params;
        SharedL2 l2(params, 1);
        CacheHierarchy hierarchy(params, l2, 0);
        Rng rng(0x3e3);
        std::vector<std::uint64_t> addrs(1 << 20);
        for (std::uint64_t &addr : addrs)
            addr = 0x10000000ULL + (rng.next() % (1ULL << 20));
        for (std::uint64_t addr : addrs) // fill the caches
            sink += hierarchy.dataAccess(1, addr, false);
        for (int rep = 0; rep < probeReps; ++rep) {
            Scope span(log, "mem.access");
            for (std::uint64_t addr : addrs)
                sink += hierarchy.dataAccess(1, addr, false);
            span.count("accesses", static_cast<double>(addrs.size()));
        }
    }

    // metrics: uncached solo references (Calibrator::soloIpc). The
    // warm-up is one cycle longer than the workload's, so the keys
    // miss the process-wide table and every call measures.
    for (const char *workload : {"GCC", "FP", "GO"}) {
        Calibrator calibrator(config.coreFor(2), config.mem,
                              config.calibWarmupCycles + 1,
                              config.calibMeasureCycles);
        Scope span(log, "metrics.solo_ref");
        sink += static_cast<std::uint64_t>(
            1000.0 * calibrator.soloIpc(workload));
        span.count("refs", 1.0);
    }

    // cluster: signature dispatch (Dispatcher::pick) over fixed views.
    {
        ArrivalSpec spec;
        spec.numJobs = 1000;
        spec.meanInterarrivalCycles = 1000.0;
        spec.meanJobCycles = 20000.0;
        spec.seed = 0xd15;
        const std::vector<ClusterArrival> arrivals =
            makeClusterArrivals(config, spec);
        std::vector<NodeView> views(4);
        for (int k = 0; k < 4; ++k) {
            views[static_cast<std::size_t>(k)].id = k;
            views[static_cast<std::size_t>(k)].poolSize = 2 + k % 3;
            views[static_cast<std::size_t>(k)].queuedWork =
                100000ULL * static_cast<std::uint64_t>(k + 1);
            views[static_cast<std::size_t>(k)].signature = signature;
        }
        const std::unique_ptr<Dispatcher> dispatcher =
            makeDispatcher("signature", 1);
        constexpr int picks = 100000;
        for (int rep = 0; rep < probeReps; ++rep) {
            Scope span(log, "cluster.dispatch");
            for (int i = 0; i < picks; ++i)
                sink += static_cast<std::uint64_t>(dispatcher->pick(
                    arrivals[static_cast<std::size_t>(i) %
                             arrivals.size()],
                    views));
            span.count("picks", picks);
        }
    }
    root.count("sink", static_cast<double>(sink % 1000));
}

void
writeDocument(const std::string &path, const SpanLog &log,
              const Outcome &outcome)
{
    std::string document;
    stats::JsonWriter json(&document);
    json.beginObject();
    json.key("build_type");
    json.string(SOS_PROBE_BUILD_TYPE);
    json.key("sanitize");
    json.string(SOS_PROBE_SANITIZE);
    json.key("compiler");
    json.string(__VERSION__);
    json.key("spans");
    json.beginArray();
    for (const SpanLog::Span &span : log.spans()) {
        json.beginObject();
        json.key("name");
        json.string(span.name);
        json.key("parent");
        json.number(span.parent);
        json.key("start");
        json.number(span.start);
        json.key("end");
        json.number(span.end);
        json.key("cpu");
        json.number(span.cpuEnd - span.cpuStart);
        json.key("counts");
        json.beginObject();
        for (const auto &[name, value] : span.counts) {
            json.key(name);
            json.number(value);
        }
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.key("mixes");
    json.beginArray();
    for (const Outcome::Mix &mix : outcome.mixes) {
        json.beginObject();
        json.key("label");
        json.string(mix.label);
        json.key("candidates");
        json.number(mix.candidates);
        json.key("best_ws");
        json.number(mix.best);
        json.key("worst_ws");
        json.number(mix.worst);
        json.key("avg_ws");
        json.number(mix.average);
        json.endObject();
    }
    json.endArray();
    json.key("responses");
    json.beginArray();
    for (std::uint64_t response : outcome.responses)
        json.number(response);
    json.endArray();
    json.endObject();
    SOS_ASSERT(json.complete());
    document += '\n';

    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        fatal("cannot open spans output '", path, "'");
    const std::size_t written =
        std::fwrite(document.data(), 1, document.size(), file);
    if (written != document.size() || std::fclose(file) != 0)
        fatal("short write to spans output '", path, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    SpanLog log;
    Outcome outcome;
    if (options.workload == "fig1")
        runFig1(log, options, outcome);
    else
        runCluster(log, options, outcome);
    if (options.mode == "trace")
        runLayerProbes(log, options.config);
    writeDocument(options.spansPath, log, outcome);
    return 0;
}
