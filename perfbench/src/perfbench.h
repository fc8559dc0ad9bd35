/**
 * @file
 * Shared pieces of the Cyclone benchmark: run options, the result
 * report, the in-memory span trace, and the helpers every workload uses
 * (spec text generation, cold artifact set-up, order statistics,
 * reference checks).
 *
 * The benchmark stays outside the library: it times calls into each
 * layer's public functions and reads the counters the public API
 * already returns (CampaignResult, BpOsdDecoder::stats(),
 * StreamDecoder::stats(), SpoolStats).
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cyclone.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for spools, traces and the run log. */
    std::string workDir;
    /** Host threads (nproc). */
    size_t threads = 1;
};

/** The run's result: correctness, failure counts and named metrics. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    bool correct = true;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string& name, double value,
             const std::string& unit);
    /** Record a failed correctness check (prints it to stderr). */
    void fail(const std::string& why);
    /** The final result line (one JSON object). */
    std::string json() const;
};

/** Seconds on the monotonic clock. */
double nowSeconds();

/** Peak resident set of this process, and of its reaped children. */
double peakRssMb();
double childrenPeakRssMb();

/** Median of a sample (0 when empty). */
double median(std::vector<double> values);

/**
 * Exact order statistic: the smallest sample value v such that at
 * least q of the samples are <= v (nearest-rank). 0 when empty.
 */
double quantile(std::vector<double> values, double q);

/**
 * Spans kept in memory and written out when the run ends: name,
 * start, end, the span that caused it, and the recording thread.
 * Thread-safe; spans are recorded at layer boundaries only, so a run
 * holds at most a few thousand.
 */
class Trace
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int64_t parent = -1;
        size_t thread = 0;
    };

    /** Open a span; returns its id (pass it as a child's parent). */
    int64_t begin(const std::string& name, int64_t parent = -1);
    void end(int64_t id);

    /** Summed duration of every span called `name`. */
    double total(const std::string& name) const;
    size_t size() const;

    /** Write the spans as JSON, one object per line (a failure is
     *  reported on stderr; the spans are diagnostics, not results). */
    void write(const std::string& path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Trace* trace, const std::string& name, int64_t parent = -1)
            : trace_(trace),
              id_(trace != nullptr ? trace->begin(name, parent) : -1)
        {}
        ~Scope()
        {
            if (trace_ != nullptr)
                trace_->end(id_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        int64_t id() const { return id_; }

      private:
        Trace* trace_;
        int64_t id_;
    };

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** A campaign spec generated from the workload seed, and its text. */
struct GeneratedSpec
{
    std::string text;
    cyclone::CampaignSpec spec;
};

/** Parse generated spec text (the program sees only the text). */
GeneratedSpec makeSpec(std::string text);

/** Resolved tasks with warm artifacts, and the cache that holds them. */
struct Artifacts
{
    std::vector<cyclone::ResolvedTask> tasks;
    std::unique_ptr<cyclone::ArtifactCache> cache;
};

/** Set-up repetitions: at least kMinSetUpReps, more while the set-up
 *  budget lasts, so cheap set-ups report a median of many. */
constexpr size_t kMinSetUpReps = 3;
constexpr size_t kMaxSetUpReps = 15;
constexpr double kSetUpBudgetSeconds = 1.0;

struct SetUp
{
    double seconds = 0.0; ///< Median over the repetitions.
    size_t reps = 0;
};

/**
 * The workload's set-up: cold-cache buildTaskArtifacts over every task
 * of `spec` (each distinct compile and DEM once) on a fresh cache,
 * repeated as above. `out` keeps the last repetition's warm artifacts.
 * With a non-empty `storeDir`, repetition k's cache persists into the
 * store `storeDir`/rep<k> (the spool workload publishes its artifacts
 * during set-up). A traced set-up builds once, records it, and then
 * times every distinct compile on its own through compileCodesign.
 */
SetUp setUp(const cyclone::CampaignSpec& spec, Artifacts& out,
            const std::string& storeDir = "", Trace* trace = nullptr);

/** Counted layer outputs shared by the campaign and stream reports. */
struct LayerCounts
{
    cyclone::BpOsdStats decoder;
    /** Summed over the workload's tasks (one DEM each). */
    size_t mechanisms = 0;
    size_t edges = 0;
    /** Sum over tasks of BP iterations x that task's DEM edges. */
    double edgeIters = 0.0;
    /** Sampled shots and the detection events they carried (0 when
     *  sampling happened out of process). */
    size_t shots = 0;
    size_t detectionEvents = 0;

    /** Add one task's DEM and decoder counters. */
    void addTask(const cyclone::DetectorErrorModel& dem,
                 const cyclone::BpOsdStats& stats);
};

/** Fold one decoder's counters into a running total. */
void addDecoderStats(cyclone::BpOsdStats& total,
                     const cyclone::BpOsdStats& s);

/**
 * Check the simulated round makespan and compiled op counts of every
 * distinct compile against the recorded values (exact), and return
 * the Cyclone round makespan in simulated microseconds.
 */
double checkCompiles(const std::vector<cyclone::ResolvedTask>& tasks,
                     Report& report);

/**
 * Compiler-layer per-layer metrics: compile time (from the trace),
 * op and roadblock counts of the distinct compiles, and the simulated
 * baseline-grid round of the workload's code.
 */
void addCompilerLayer(const std::vector<cyclone::ResolvedTask>& tasks,
                      const Trace& trace, Report& report);

/** Decoder and DEM per-layer metrics from counted layer outputs. */
void addDecoderLayer(const LayerCounts& counts, double decodeSeconds,
                     double sampleSeconds, Report& report);

/**
 * Check one task's logical error rate against the recorded reference
 * (binomial tails, see reference.h); records a failure if outside.
 */
void checkLer(const cyclone::TaskResult& task, Report& report);

/** Print host/build provenance to stderr and return it as JSON. */
std::string provenance(const Options& options,
                       const std::string& backend);

// Workload entry points.
void runCampaignWorkload(const Options& options, Report& report);
void runSpoolWorkload(const Options& options, Report& report);
void runStreamWorkload(const Options& options, Report& report);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
