#include "bench_harness.hh"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/params_io.hh"
#include "cpu/sampling.hh"
#include "stats/json.hh"

namespace sos {

namespace {

/** True for a path segment of the form candidate<digits>. */
bool
isCandidateSegment(const std::string &path, std::size_t begin,
                   std::size_t end)
{
    static const std::string prefix = "candidate";
    if (end - begin <= prefix.size() ||
        path.compare(begin, prefix.size(), prefix) != 0)
        return false;
    for (std::size_t i = begin + prefix.size(); i < end; ++i) {
        if (std::isdigit(static_cast<unsigned char>(path[i])) == 0)
            return false;
    }
    return true;
}

/** Register one cache's geometry under @p group. */
void
publishCacheGeometry(const stats::Group &group,
                     const CacheParams &cache)
{
    const stats::Group g = group.group(cache.name);
    g.value("size_bytes", "total capacity") =
        static_cast<double>(cache.sizeBytes);
    g.value("line_bytes", "line (or page) size") =
        static_cast<double>(cache.lineBytes);
    g.value("assoc", "associativity") =
        static_cast<double>(cache.assoc);
}

/**
 * Candidate profiling runs registered in @p registry: the number of
 * distinct "candidate<i>" stat groups, the unit of sweep work the
 * bench report normalizes throughput by.
 */
std::size_t
candidateCount(const stats::Registry &registry)
{
    std::set<std::string> groups;
    for (const stats::Stat *stat : registry.sorted()) {
        const std::string &path = stat->path();
        std::size_t begin = 0;
        while (begin < path.size()) {
            std::size_t end = path.find('.', begin);
            if (end == std::string::npos)
                end = path.size();
            if (isCandidateSegment(path, begin, end)) {
                groups.insert(path.substr(0, end));
                break;
            }
            begin = end + 1;
        }
    }
    return groups.size();
}

} // namespace

void
BenchHarness::publishMachineTopology()
{
    const SimConfig &config = options_.config;
    if (config.heteroCores.empty())
        return; // homogeneous runs keep pre-config manifests byte-identical
    const int num_cores = static_cast<int>(config.heteroCores.size());
    MachineParams params;
    params.numCores = num_cores;
    params.core = config.heteroCores.front();
    params.mem = config.mem;
    params.cores = config.heteroCores;
    params.coreMem = config.heteroCoreMem;
    const std::vector<int> classes = params.coreClasses();

    const stats::Group topology = group("machine").group("topology");
    topology.info("config", "machine description file") =
        config.machineConfigPath;
    topology.value("num_cores", "cores in the configured machine") =
        static_cast<double>(num_cores);
    topology.value("num_classes",
                   "core equivalence classes (identical params)") =
        static_cast<double>(
            1 + *std::max_element(classes.begin(), classes.end()));
    publishCacheGeometry(topology, config.mem.l2);
    for (int k = 0; k < num_cores; ++k) {
        const CoreParams &core = params.coreParams(k);
        const MemParams &mem = params.memParams(k);
        const stats::Group g =
            topology.group("core" + std::to_string(k));
        g.value("class", "core equivalence class id") =
            static_cast<double>(classes[static_cast<std::size_t>(k)]);
        if (static_cast<int>(config.heteroCoreNames.size()) >
            k) {
            g.info("class_name", "config-file class name") =
                config.heteroCoreNames[static_cast<std::size_t>(k)];
        }
        g.value("contexts", "hardware thread contexts") =
            static_cast<double>(core.numContexts);
        g.value("fetch_width", "instructions fetched per cycle") =
            static_cast<double>(core.fetchWidth);
        g.value("int_units", "integer ALUs") =
            static_cast<double>(core.numIntUnits);
        g.value("fp_add_pipes", "FP add pipelines") =
            static_cast<double>(core.fpAddPipes);
        g.value("fp_mul_pipes", "FP multiply pipelines") =
            static_cast<double>(core.fpMulPipes);
        g.value("ls_ports", "load/store ports") =
            static_cast<double>(core.numLsPorts);
        publishCacheGeometry(g, mem.l1i);
        publishCacheGeometry(g, mem.l1d);
    }
}

BenchHarness::BenchHarness(const CommandLine &cli, int argc, char **argv)
    : tool_(cli.tool), options_(parseBenchArgs(cli, argc, argv))
{
    trace_.setPhaseStride(options_.config.traceSample);
}

void
BenchHarness::writeBench()
{
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const auto candidates = static_cast<double>(candidateCount(registry_));
    const stats::Group timing = bench("timing");
    timing.value("elapsed_seconds", "wall-clock harness duration") =
        elapsed;
    timing.value("candidates", "candidate profiling runs registered") =
        candidates;
    timing.value("candidates_per_sec", "sweep throughput") =
        elapsed > 0.0 ? candidates / elapsed : 0.0;

    std::string document;
    stats::JsonWriter json(&document);
    json.beginObject();
    json.key("schema");
    json.string("sos.bench");
    json.key("schema_version");
    json.number(3);
    json.key("tool");
    json.string(tool_);
    json.key("jobs");
    json.number(static_cast<std::int64_t>(
        resolveJobs(options_.config.jobs)));
    json.key("sample");
    json.string(renderSampleWindows(options_.config.sample));
    json.key("stats");
    writeJsonTree(bench_, json);
    json.endObject();
    SOS_ASSERT(json.complete());
    document += '\n';
    stats::writeFileOrFatal(options_.out.bench, document, "bench");
}

int
BenchHarness::finish()
{
    // The sampled-mode bookkeeping group: recorded only when sampling
    // is enabled, so full-detail manifests stay byte-identical to the
    // pre-sampling goldens.
    if (options_.config.sample.enabled())
        publishSamplingStats(group("sampling"), options_.config.sample);
    // The configured-machine description: emitted only for machines
    // loaded from a heterogeneous config file, so default manifests
    // stay byte-identical to the pre-config goldens. Pure function of
    // the parsed config -- identical across SOS_JOBS.
    publishMachineTopology();
    if (!options_.out.manifest.empty()) {
        stats::Manifest manifest;
        manifest.tool = tool_;
        manifest.seed = options_.config.seed;
        manifest.config = configPairs(options_.config);
        stats::writeManifestFile(options_.out.manifest, manifest,
                                 registry_);
    }
    if (!options_.out.trace.empty())
        trace_.writeFile(options_.out.trace);
    if (wantsBench())
        writeBench();
    return 0;
}

} // namespace sos
