#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench.h"
#include "reference.h"

using namespace cyclone;

namespace perfbench {

void
Report::add(const std::string& name, double value, const std::string& unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string& why)
{
    correct = false;
    std::fprintf(stderr, "[check] FAIL: %s\n", why.c_str());
}

std::string
Report::json() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        // A non-finite value is not JSON; it only arises from an empty
        // measurement, which a failed check already reports.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out << (i > 0 ? ", " : "") << '"' << metrics[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
childrenPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_CHILDREN, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t index =
        std::min(values.size() - 1,
                 static_cast<size_t>(std::max(1.0, rank)) - 1);
    return values[index];
}

int64_t
Trace::begin(const std::string& name, int64_t parent)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
    span.start = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size() - 1);
}

void
Trace::end(int64_t id)
{
    const double t = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = t;
}

double
Trace::total(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const Span& s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

size_t
Trace::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Trace::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    char line[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(line, sizeof line,
                      "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f, \"parent\": %lld, "
                      "\"thread\": %zu}\n",
                      i, s.name.c_str(), (s.start - origin) * 1e6,
                      (s.end - origin) * 1e6,
                      static_cast<long long>(s.parent), s.thread);
        out << line;
    }
    if (!out)
        std::fprintf(stderr, "[trace] cannot write %s\n", path.c_str());
    else
        std::fprintf(stderr, "[trace] %zu spans written to %s\n",
                     spans_.size(), path.c_str());
}

GeneratedSpec
makeSpec(std::string text)
{
    GeneratedSpec g;
    g.spec = parseCampaignSpec(text);
    g.text = std::move(text);
    return g;
}

namespace {

std::string
compileLabel(const ResolvedTask& rt)
{
    return rt.spec->codeName + "/" +
        architectureName(rt.spec->architecture);
}

/** One task per distinct compile result of the built tasks. */
std::vector<const ResolvedTask*>
distinctCompiles(const std::vector<ResolvedTask>& tasks)
{
    std::vector<const ResolvedTask*> out;
    std::set<const CompileResult*> seen;
    for (const ResolvedTask& rt : tasks)
        if (rt.compiled && seen.insert(rt.compiled.get()).second)
            out.push_back(&rt);
    return out;
}

/** Tanner-graph edges of a DEM (what one BP iteration touches). */
size_t
demEdges(const DetectorErrorModel& dem)
{
    size_t edges = 0;
    for (const DemMechanism& m : dem.mechanisms)
        edges += m.detectors.size();
    return edges;
}

} // namespace

SetUp
setUp(const CampaignSpec& spec, Artifacts& out, const std::string& storeDir,
      Trace* trace)
{
    std::vector<double> seconds;
    double spent = 0.0;
    while (seconds.size() < kMinSetUpReps ||
           (spent < kSetUpBudgetSeconds && seconds.size() < kMaxSetUpReps)) {
        out = Artifacts{};
        out.cache = std::make_unique<ArtifactCache>();
        if (!storeDir.empty())
            out.cache->attachStore(storeDir + "/rep" +
                                   std::to_string(seconds.size()));
        const double t0 = nowSeconds();
        Trace::Scope root(trace, "setup");
        out.tasks = resolveTaskIdentities(spec);
        for (ResolvedTask& rt : out.tasks) {
            Trace::Scope span(trace, "setup.build_artifacts", root.id());
            buildTaskArtifacts(rt, *out.cache);
        }
        seconds.push_back(nowSeconds() - t0);
        spent += seconds.back();
        if (trace != nullptr)
            break; // a traced run records one cold build
    }
    if (trace != nullptr) {
        // Compile time on its own: the same compiles, called directly.
        // dem.build_s is the build spans' time not spent compiling.
        Trace::Scope root(trace, "setup.compile_only");
        for (const ResolvedTask* rt : distinctCompiles(out.tasks)) {
            CodesignConfig config;
            config.architecture = rt->spec->architecture;
            config.ejf.swap = rt->spec->swap;
            config.cyclone.swap = rt->spec->swap;
            config.gridCapacity = rt->spec->gridCapacity;
            Trace::Scope span(trace, "compiler.compile", root.id());
            compileCodesign(*rt->code, *rt->schedule, config);
        }
    }
    SetUp result;
    result.seconds = median(seconds);
    result.reps = seconds.size();
    return result;
}

void
addDecoderStats(BpOsdStats& total, const BpOsdStats& s)
{
    total.decodes += s.decodes;
    total.bpConverged += s.bpConverged;
    total.osdInvocations += s.osdInvocations;
    total.osdFailures += s.osdFailures;
    total.trivialShots += s.trivialShots;
    total.memoHits += s.memoHits;
    total.bpIterations += s.bpIterations;
    total.waveGroups += s.waveGroups;
    total.waveLaneSlots += s.waveLaneSlots;
    total.waveLanesFilled += s.waveLanesFilled;
    total.osdBatchGroups += s.osdBatchGroups;
    total.osdSharedPivots += s.osdSharedPivots;
    total.stagedChunks += s.stagedChunks;
    if (total.backend.empty())
        total.backend = s.backend;
}

void
LayerCounts::addTask(const DetectorErrorModel& dem, const BpOsdStats& s)
{
    const size_t e = demEdges(dem);
    mechanisms += dem.mechanisms.size();
    edges += e;
    edgeIters += static_cast<double>(s.bpIterations) *
        static_cast<double>(e);
    addDecoderStats(decoder, s);
}

double
checkCompiles(const std::vector<ResolvedTask>& tasks, Report& report)
{
    double cycloneRoundUs = 0.0;
    for (const ResolvedTask* rt : distinctCompiles(tasks)) {
        const std::string label = compileLabel(*rt);
        const CompileResult& c = *rt->compiled;
        const CompileReference* ref = findCompileReference(label);
        if (ref == nullptr) {
            char msg[256];
            std::snprintf(msg, sizeof msg,
                          "no recorded compile reference for %s (round "
                          "%.17g us, %zu ops)",
                          label.c_str(), c.execTimeUs,
                          c.schedule.ops.size());
            report.fail(msg);
        } else {
            if (c.execTimeUs != ref->roundUs) {
                char msg[256];
                std::snprintf(msg, sizeof msg,
                              "%s round makespan %.17g us, recorded "
                              "%.17g us",
                              label.c_str(), c.execTimeUs, ref->roundUs);
                report.fail(msg);
            }
            if (c.schedule.ops.size() != ref->ops)
                report.fail(label + " compiled " +
                            std::to_string(c.schedule.ops.size()) +
                            " ops, recorded " + std::to_string(ref->ops));
        }
        if (rt->spec->architecture == Architecture::Cyclone)
            cycloneRoundUs = c.execTimeUs;
    }
    if (cycloneRoundUs <= 0.0)
        report.fail("workload has no Cyclone compile");
    return cycloneRoundUs;
}

void
addCompilerLayer(const std::vector<ResolvedTask>& tasks,
                 const Trace& trace, Report& report)
{
    size_t ops = 0;
    size_t roadblocks = 0;
    std::string code;
    double baselineRoundUs = 0.0;
    for (const ResolvedTask* rt : distinctCompiles(tasks)) {
        ops += rt->compiled->schedule.ops.size();
        roadblocks += rt->compiled->trapRoadblocks +
            rt->compiled->junctionRoadblocks;
        code = rt->code->name();
        if (rt->spec->architecture == Architecture::BaselineGrid)
            baselineRoundUs = rt->compiled->execTimeUs;
    }
    if (baselineRoundUs == 0.0 && !tasks.empty()) {
        // Workloads without a baseline point still report the
        // simulated baseline round of their code, for comparison.
        const ResolvedTask& rt = tasks.front();
        CodesignConfig config;
        config.architecture = Architecture::BaselineGrid;
        baselineRoundUs =
            compileCodesign(*rt.code, *rt.schedule, config).execTimeUs;
    }
    const double compileSeconds = trace.total("compiler.compile");
    report.add("compiler.compile_s", compileSeconds, "s");
    report.add("compiler.ops", static_cast<double>(ops), "count");
    report.add("compiler.roadblocks", static_cast<double>(roadblocks),
               "count");
    report.add("compiler.baseline_round_us", baselineRoundUs, "sim_us");
    report.add("dem.build_s",
               std::max(0.0, trace.total("setup.build_artifacts") -
                                 compileSeconds),
               "s");
}

void
addDecoderLayer(const LayerCounts& c, double decodeSeconds,
                double sampleSeconds, Report& report)
{
    const BpOsdStats& s = c.decoder;
    const double decodes = static_cast<double>(s.decodes);
    const size_t nonTrivial = s.decodes - s.trivialShots;
    const size_t distinct = s.decodes - s.trivialShots - s.memoHits;
    report.add("dem.mechanisms", static_cast<double>(c.mechanisms),
               "count");
    report.add("dem.edges", static_cast<double>(c.edges), "count");
    report.add("dem.detection_events",
               c.shots > 0 ? static_cast<double>(c.detectionEvents) /
                       static_cast<double>(c.shots)
                           : 0.0,
               "count");
    report.add("dem.sample_s", sampleSeconds, "s");
    report.add("decoder.decode_s", decodeSeconds, "s");
    report.add("decoder.distinct_syndromes", static_cast<double>(distinct),
               "count");
    report.add("decoder.bp_iters_mean", s.meanBpIterations(), "count");
    report.add("decoder.edge_iters", c.edgeIters, "count");
    report.add("decoder.bp_converged_share",
               nonTrivial > 0
                   ? static_cast<double>(s.bpConverged - s.trivialShots) /
                       static_cast<double>(nonTrivial)
                   : 0.0,
               "share");
    report.add("decoder.osd_invocations",
               static_cast<double>(s.osdInvocations), "count");
    report.add("decoder.osd_share",
               decodes > 0 ? static_cast<double>(s.osdInvocations) / decodes
                           : 0.0,
               "share");
    report.add("decoder.osd_batch_groups",
               static_cast<double>(s.osdBatchGroups), "count");
    report.add("decoder.osd_shared_pivots",
               static_cast<double>(s.osdSharedPivots), "count");
    report.add("decoder.lane_occupancy", s.waveLaneOccupancy(), "share");
    report.add("decoder.memo_hit_share", s.memoHitRate(), "share");
    report.add("decoder.trivial_share", s.trivialFraction(), "share");
}

namespace {

/** log P(X = k) for X ~ Binomial(n, p), 0 < p < 1. */
double
logBinomialPmf(size_t n, size_t k, double p)
{
    return std::lgamma(static_cast<double>(n) + 1.0) -
        std::lgamma(static_cast<double>(k) + 1.0) -
        std::lgamma(static_cast<double>(n - k) + 1.0) +
        static_cast<double>(k) * std::log(p) +
        static_cast<double>(n - k) * std::log1p(-p);
}

/** P(X >= k) (upper = true) or P(X <= k) for X ~ Binomial(n, p). */
double
binomialTail(size_t n, size_t k, double p, bool upper)
{
    if (p <= 0.0)
        return upper ? (k == 0 ? 1.0 : 0.0) : 1.0;
    if (p >= 1.0)
        return upper ? 1.0 : (k >= n ? 1.0 : 0.0);
    double sum = 0.0;
    const size_t lo = upper ? k : 0;
    const size_t hi = upper ? n : k;
    for (size_t i = lo; i <= hi; ++i)
        sum += std::exp(logBinomialPmf(n, i, p));
    return std::min(1.0, sum);
}

} // namespace

void
checkLer(const TaskResult& task, Report& report)
{
    const std::string key = task.codeName + "/" + task.architecture;
    const LerReference* ref =
        findLerReference(key, task.physicalError);
    const size_t n = task.logicalErrorRate.trials;
    const size_t k = task.logicalErrorRate.successes;
    char msg[320];
    if (ref == nullptr) {
        std::snprintf(msg, sizeof msg,
                      "no recorded LER reference for %s p=%g", key.c_str(),
                      task.physicalError);
        report.fail(msg);
        return;
    }
    if (n == 0) {
        report.fail("task " + task.id + " ran no shots");
        return;
    }
    // The reference is itself an estimate: widen it by kRefSigmas of
    // its own standard error, then require the observed count to be
    // no less likely than kLerTailProbability under either edge.
    const double r = static_cast<double>(ref->failures) /
        static_cast<double>(ref->shots);
    const double sigma =
        std::sqrt(std::max(r * (1.0 - r), 1.0 / static_cast<double>(
                                                    ref->shots)) /
                  static_cast<double>(ref->shots));
    const double hi = std::min(1.0, r + kRefSigmas * sigma);
    const double lo = std::max(0.0, r - kRefSigmas * sigma);
    const double pHigh = binomialTail(n, k, hi, true);
    const double pLow = binomialTail(n, k, lo, false);
    std::snprintf(msg, sizeof msg,
                  "%s p=%g: LER %zu/%zu = %.5f, reference %zu/%zu = %.5f "
                  "(tails %.2g / %.2g, limit %.0e)",
                  key.c_str(), task.physicalError, k, n,
                  static_cast<double>(k) / static_cast<double>(n),
                  ref->failures, ref->shots, r, pHigh, pLow,
                  kLerTailProbability);
    if (pHigh < kLerTailProbability || pLow < kLerTailProbability)
        report.fail(msg);
    else
        std::fprintf(stderr, "[check] ok: %s\n", msg);
}

std::string
provenance(const Options& options, const std::string& backend)
{
    const char* override = std::getenv(kWaveBackendEnv);
    const bool differs = backend != kReferenceBackend;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"nproc\": %zu, \"backend\": \"%s\", "
        "\"backend_override\": \"%s\", \"build_type\": \"%s\", "
        "\"reference_backend\": \"%s\", \"backend_differs\": %s}",
        options.workload.c_str(),
        static_cast<unsigned long long>(options.seed), options.seconds,
        options.trace ? 1 : 0, options.threads, backend.c_str(),
        override != nullptr ? override : "", PERFBENCH_BUILD_TYPE,
        kReferenceBackend, differs ? "true" : "false");
    std::fprintf(stderr, "[provenance] %s\n", buf);
    if (differs)
        std::fprintf(stderr,
                     "[provenance] WARNING: decoder backend '%s' differs "
                     "from the reference backend '%s'; do not compare "
                     "these numbers with reference-backend runs\n",
                     backend.c_str(), kReferenceBackend);
    return buf;
}

} // namespace perfbench
