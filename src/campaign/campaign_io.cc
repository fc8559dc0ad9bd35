#include "campaign/campaign_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <variant>
#include <vector>

#include <unistd.h>

#include "common/kv_record.h"
#include "common/stats.h"
#include "compiler/architecture.h"

namespace cyclone {

namespace {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string
csvField(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
jsonValue(const FieldValue& v)
{
    if (const size_t* n = std::get_if<size_t>(&v))
        return std::to_string(*n);
    if (const double* d = std::get_if<double>(&v))
        return num(*d);
    if (const bool* b = std::get_if<bool>(&v))
        return *b ? "true" : "false";
    std::string out = "\"";
    out += jsonEscape(std::get<std::string>(v));
    out += '"';
    return out;
}

std::string
csvValue(const FieldValue& v)
{
    if (const bool* b = std::get_if<bool>(&v))
        return *b ? "1" : "0";
    if (const std::string* s = std::get_if<std::string>(&v))
        return csvField(*s);
    return jsonValue(v);
}

/** `{"name": value, ...}` over the field table of `s`. */
template <typename S>
std::string
jsonFields(const S& s)
{
    std::string out;
    for (const StatField<S>& f : S::fields()) {
        out += out.empty() ? "{\"" : ", \"";
        out += f.name;
        out += "\": ";
        out += jsonValue(f.get(s));
    }
    return out + "}";
}

/** CSV header cells of S's field table, each name prefixed. */
template <typename S>
std::string
csvHeader(const std::string& prefix)
{
    std::string out;
    for (const StatField<S>& f : S::fields()) {
        if (!out.empty())
            out += ',';
        out += prefix + f.name;
    }
    return out;
}

/** CSV cells of `s`, in csvHeader<S>() order. */
template <typename S>
std::string
csvCells(const S& s)
{
    std::string out;
    for (const StatField<S>& f : S::fields()) {
        if (!out.empty())
            out += ',';
        out += csvValue(f.get(s));
    }
    return out;
}

constexpr const char* kCheckpointMagic = "cyclone-campaign-checkpoint v2";

/** The task fields a checkpoint carries besides its content hash, shot
 *  counts and decoder/streaming stats. */
const StatField<TaskResult> kCheckpointFields[] = {
    {"rounds", &TaskResult::rounds},
    {"round_latency_us", &TaskResult::roundLatencyUs},
    {"dem_detectors", &TaskResult::demDetectors},
    {"dem_mechanisms", &TaskResult::demMechanisms},
    {"chunks", &TaskResult::chunks},
    {"stopped_early", &TaskResult::stoppedEarly},
    {"sample_seconds", &TaskResult::sampleSeconds, MergeRule::Sum,
     FieldKind::Timing},
    {"streamed", &TaskResult::streamed},
};

std::string
trim(const std::string& s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(s);
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

[[noreturn]] void
specError(size_t line, const std::string& message)
{
    throw std::runtime_error("campaign spec line " +
                             std::to_string(line) + ": " + message);
}

/** `convert` (a std::sto* function) over the whole of `text`. */
template <typename Convert>
auto
parseWhole(const std::string& text, Convert convert)
{
    size_t pos = 0;
    decltype(convert(text, &pos)) v{};
    try {
        v = convert(text, &pos);
    } catch (const std::invalid_argument&) {
        throw std::invalid_argument("invalid number '" + text + "'");
    } catch (const std::out_of_range&) {
        throw std::invalid_argument("number out of range '" + text + "'");
    }
    if (pos != text.size())
        throw std::invalid_argument("trailing characters in number '" +
                                    text + "'");
    return v;
}

/** A numeric spec value through parseCount/parseReal; a malformed one
 *  reports its line and key ("staging_chunks = banana" names both). */
template <typename Parse>
auto
parseSpecNumber(size_t line, const std::string& key,
                const std::string& value, Parse parse)
{
    try {
        return parse(value);
    } catch (const std::invalid_argument& ex) {
        specError(line, "key '" + key + "': " + ex.what());
    }
}

size_t
parseSpecCount(size_t line, const std::string& key,
               const std::string& value)
{
    return parseSpecNumber(line, key, value, parseCount);
}

double
parseSpecReal(size_t line, const std::string& key,
              const std::string& value)
{
    return parseSpecNumber(line, key, value, parseReal);
}

/** One [task] block before arch/p expansion. */
struct TaskBlock
{
    TaskSpec base;
    std::vector<std::string> archs{"cyclone"};
    std::vector<double> ps{1e-3};
    size_t line = 0;
};

bool
parseTaskArchitecture(const std::string& name, TaskSpec& task)
{
    if (name == "none" || name == "explicit") {
        task.compileLatency = false;
        return true;
    }
    const std::optional<Architecture> arch = parseArchitecture(name);
    if (!arch)
        return false;
    task.compileLatency = true;
    task.architecture = *arch;
    return true;
}

void
expandBlock(const TaskBlock& block, CampaignSpec& spec,
            std::vector<size_t>& taskLines)
{
    const bool multi = block.archs.size() * block.ps.size() > 1;
    for (const std::string& archName : block.archs) {
        for (double p : block.ps) {
            TaskSpec task = block.base;
            if (!parseTaskArchitecture(archName, task))
                specError(block.line,
                          "unknown architecture '" + archName + "'");
            task.physicalError = p;
            if (!task.id.empty() && multi) {
                char suffix[48];
                std::snprintf(suffix, sizeof suffix, "/%s/p=%.3g",
                              archName.c_str(), p);
                task.id += suffix;
            }
            spec.tasks.push_back(std::move(task));
            taskLines.push_back(block.line);
        }
    }
}

/**
 * Reject duplicate effective task ids. Results, checkpoints and spool
 * shards all key tasks by id or index; two tasks sharing an id would
 * silently shadow each other in every report. Auto ids ("task<N>")
 * participate too, so an explicit "task3" colliding with the third
 * anonymous task is caught as well.
 */
void
checkDuplicateTaskIds(const CampaignSpec& spec,
                      const std::vector<size_t>& taskLines)
{
    std::unordered_map<std::string, size_t> seen;
    for (size_t i = 0; i < spec.tasks.size(); ++i) {
        const std::string id = !spec.tasks[i].id.empty()
            ? spec.tasks[i].id
            : "task" + std::to_string(i);
        const auto [it, inserted] = seen.emplace(id, i);
        if (!inserted)
            specError(taskLines[i],
                      "duplicate task id '" + id +
                          "' (first defined by the [task] section at "
                          "line " +
                          std::to_string(taskLines[it->second]) + ")");
    }
}

} // namespace

size_t
parseCount(const std::string& text)
{
    // stoull accepts a sign (and wraps a negative value): counts take
    // digits only.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text.front())))
        throw std::invalid_argument(
            "expected a non-negative integer, got '" + text + "'");
    return parseWhole(text, [](const std::string& t, size_t* pos) {
        return std::stoull(t, pos);
    });
}

double
parseReal(const std::string& text)
{
    // stod reads "nan" and "inf" (but rejects "1e999"): no spec key or
    // flag means either.
    const double v = parseWhole(text, [](const std::string& t, size_t* pos) {
        return std::stod(t, pos);
    });
    if (!std::isfinite(v))
        throw std::invalid_argument("expected a finite number, got '" +
                                    text + "'");
    return v;
}

std::string
campaignResultToJson(const CampaignResult& result)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"campaign\": \"" << jsonEscape(result.name) << "\",\n";
    out << "  \"seed\": " << result.seed << ",\n";
    out << "  \"wall_seconds\": " << num(result.wallSeconds) << ",\n";
    out << "  \"total_shots\": " << result.totalShots() << ",\n";
    out << "  \"cache\": " << jsonFields(result.cache) << ",\n";
    out << "  \"spool\": " << jsonFields(result.spool) << ",\n";
    out << "  \"tasks\": [\n";
    for (size_t i = 0; i < result.tasks.size(); ++i) {
        const TaskResult& t = result.tasks[i];
        out << "    {\"id\": \"" << jsonEscape(t.id) << "\", \"code\": \""
            << jsonEscape(t.codeName) << "\", \"architecture\": \""
            << jsonEscape(t.architecture) << "\", \"p\": "
            << num(t.physicalError) << ", \"rounds\": " << t.rounds
            << ", \"basis\": \"" << (t.xBasis ? 'x' : 'z')
            << "\", \"round_latency_us\": " << num(t.roundLatencyUs)
            << ",\n     \"shots\": " << t.logicalErrorRate.trials
            << ", \"failures\": " << t.logicalErrorRate.successes
            << ", \"ler\": " << num(t.logicalErrorRate.rate)
            << ", \"stderr\": " << num(t.logicalErrorRate.stderr)
            << ", \"wilson\": " << num(t.wilson)
            << ", \"per_round_ler\": " << num(t.perRoundErrorRate)
            << ",\n     \"dem_detectors\": " << t.demDetectors
            << ", \"dem_mechanisms\": " << t.demMechanisms
            << ", \"chunks\": " << t.chunks << ", \"stopped_early\": "
            << (t.stoppedEarly ? "true" : "false")
            << ", \"from_checkpoint\": "
            << (t.fromCheckpoint ? "true" : "false")
            << ", \"sample_seconds\": " << num(t.sampleSeconds)
            << ",\n     \"decoder\": " << jsonFields(t.decoder);
        if (t.streamed)
            out << ",\n     \"streaming\": " << jsonFields(t.stream);
        if (t.compileMakespanUs > 0.0) {
            const double span = t.compileMakespanUs;
            const TimeBreakdown& b = t.compileBreakdown;
            out << ",\n     \"compile\": {\"makespan_us\": " << num(span)
                << ", \"parallel_fraction\": "
                << num(t.compileParallelFraction)
                << ", \"trap_roadblocks\": " << t.trapRoadblocks
                << ", \"junction_roadblocks\": " << t.junctionRoadblocks
                << ",\n       \"serialized_us\": {\"gate\": "
                << num(b.gateUs) << ", \"shuttle\": " << num(b.shuttleUs)
                << ", \"junction\": " << num(b.junctionUs)
                << ", \"swap\": " << num(b.swapUs) << ", \"measure\": "
                << num(b.measureUs) << ", \"prep\": " << num(b.prepUs)
                << "},\n       \"utilization\": {\"gate\": "
                << num(b.gateUs / span) << ", \"shuttle\": "
                << num(b.shuttleUs / span) << ", \"junction\": "
                << num(b.junctionUs / span) << ", \"swap\": "
                << num(b.swapUs / span) << "}"
                << ",\n       \"roadblock_waits\": {\"count\": "
                << t.roadblockWaits.waits << ", \"total_us\": "
                << num(t.roadblockWaits.totalWaitUs) << ", \"bins\": [";
            for (size_t b2 = 0; b2 < WaitHistogram::kBins; ++b2) {
                if (b2 > 0)
                    out << ", ";
                out << t.roadblockWaits.bins[b2];
            }
            out << "]}}";
        }
        if (!t.error.empty())
            out << ", \"error\": \"" << jsonEscape(t.error) << "\"";
        out << "}";
        if (i + 1 < result.tasks.size())
            out << ",";
        out << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

std::string
campaignResultToCsv(const CampaignResult& result)
{
    std::ostringstream out;
    out << "id,code,architecture,p,rounds,basis,round_latency_us,shots,"
           "failures,ler,wilson,per_round_ler,chunks,stopped_early,"
           "from_checkpoint,sample_seconds,"
        << csvHeader<BpOsdStats>("") << ','
        << csvHeader<StreamDecodeStats>("stream_")
        << ",util_gate,util_shuttle,"
           "util_junction,util_swap,parallel_fraction,trap_roadblocks,"
           "junction_roadblocks,roadblock_wait_us,error\n";
    for (const TaskResult& t : result.tasks) {
        const double span = t.compileMakespanUs;
        auto util = [&](double component_us) {
            return span > 0.0 ? component_us / span : 0.0;
        };
        out << csvField(t.id) << ',' << csvField(t.codeName) << ','
            << csvField(t.architecture) << ','
            << num(t.physicalError) << ',' << t.rounds << ','
            << (t.xBasis ? 'x' : 'z') << ',' << num(t.roundLatencyUs)
            << ',' << t.logicalErrorRate.trials << ','
            << t.logicalErrorRate.successes << ','
            << num(t.logicalErrorRate.rate) << ',' << num(t.wilson)
            << ',' << num(t.perRoundErrorRate) << ',' << t.chunks << ','
            << (t.stoppedEarly ? 1 : 0) << ','
            << (t.fromCheckpoint ? 1 : 0) << ',' << num(t.sampleSeconds)
            << ',' << csvCells(t.decoder) << ',' << csvCells(t.stream)
            << ',' << num(util(t.compileBreakdown.gateUs)) << ','
            << num(util(t.compileBreakdown.shuttleUs)) << ','
            << num(util(t.compileBreakdown.junctionUs)) << ','
            << num(util(t.compileBreakdown.swapUs)) << ','
            << num(t.compileParallelFraction) << ','
            << t.trapRoadblocks << ',' << t.junctionRoadblocks << ','
            << num(t.roadblockWaits.totalWaitUs) << ','
            << csvField(t.error) << '\n';
    }
    return out.str();
}

bool
writeTextFile(const std::string& path, const std::string& content)
{
    // Pid-unique tmp name: concurrent writers of the same path (two
    // coordinators racing a checkpoint during a failover window)
    // never interleave into one tmp file, and the rename publishes
    // whichever finished last, complete.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        out << content;
        if (!out)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string
formatCheckpoint(const std::vector<TaskResult>& tasks)
{
    std::vector<KvRecord> records;
    for (const TaskResult& t : tasks) {
        if (!t.error.empty() || t.logicalErrorRate.trials == 0)
            continue;
        KvRecord& rec = records.emplace_back("task");
        rec.putHex("content_hash", t.contentHash);
        rec.put("shots", t.logicalErrorRate.trials);
        rec.put("failures", t.logicalErrorRate.successes);
        rec.putFields(kCheckpointFields, t);
        rec.putFields(BpOsdStats::fields(), t.decoder, "decoder.");
        rec.putFields(StreamDecodeStats::fields(), t.stream, "stream.");
    }
    return formatRecords(kCheckpointMagic, records);
}

CampaignCheckpoint
parseCheckpoint(const std::string& text)
{
    // The streaming latency histogram is not persisted: its summary
    // scalars and percentiles are restored verbatim.
    CampaignCheckpoint out;
    for (const KvRecord& rec :
         parseRecords(text, kCheckpointMagic, "campaign checkpoint")) {
        if (rec.tag() != "task")
            continue;
        TaskResult t;
        t.contentHash = rec.hex("content_hash");
        rec.getFields(kCheckpointFields, t);
        rec.getFields(BpOsdStats::fields(), t.decoder, "decoder.");
        rec.getFields(StreamDecodeStats::fields(), t.stream, "stream.");
        t.setCounts(rec.count("failures"), rec.count("shots"));
        t.fromCheckpoint = true;
        out.tasks[t.contentHash] = t;
    }
    return out;
}

bool
saveCheckpoint(const CampaignResult& result, const std::string& path)
{
    return writeTextFile(path, formatCheckpoint(result.tasks));
}

bool
loadCheckpoint(const std::string& path, CampaignCheckpoint& out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    try {
        for (auto& [hash, task] : parseCheckpoint(text.str()).tasks)
            out.tasks[hash] = std::move(task);
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

CampaignSpec
parseCampaignSpec(const std::string& text)
{
    CampaignSpec spec;
    std::vector<TaskBlock> blocks;
    TaskBlock* current = nullptr;

    std::istringstream in(text);
    std::string raw;
    size_t lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        const size_t comment = raw.find('#');
        if (comment != std::string::npos)
            raw.resize(comment);
        const std::string line = trim(raw);
        if (line.empty())
            continue;
        if (line == "[task]") {
            blocks.emplace_back();
            blocks.back().line = lineno;
            current = &blocks.back();
            continue;
        }
        if (line.front() == '[')
            specError(lineno, "unknown section '" + line + "'");
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            specError(lineno, "expected key = value");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            specError(lineno, "expected key = value");

        if (current == nullptr) {
            if (key == "name")
                spec.name = value;
            else if (key == "seed")
                spec.seed = parseSpecCount(lineno, key, value);
            else if (key == "threads")
                spec.threads = parseSpecCount(lineno, key, value);
            else if (key == "spool")
                spec.spool = value;
            else if (key == "workers")
                spec.workers = parseSpecCount(lineno, key, value);
            else if (key == "lease_seconds") {
                spec.leaseSeconds = parseSpecReal(lineno, key, value);
                if (!(spec.leaseSeconds > 0.0))
                    specError(lineno, "lease_seconds must be > 0");
            } else if (key == "max_claim_reclaims")
                spec.maxClaimReclaims =
                    parseSpecCount(lineno, key, value);
            else
                specError(lineno,
                          "unknown campaign key '" + key + "'");
            continue;
        }
        TaskSpec& t = current->base;
        if (key == "id") {
            t.id = value;
        } else if (key == "code") {
            t.codeName = value;
        } else if (key == "arch") {
            current->archs = splitList(value);
            if (current->archs.empty())
                specError(lineno, "empty arch list");
        } else if (key == "p") {
            current->ps.clear();
            for (const std::string& item : splitList(value))
                current->ps.push_back(
                    parseSpecReal(lineno, key, item));
            if (current->ps.empty())
                specError(lineno, "empty p list");
        } else if (key == "rounds") {
            t.rounds = parseSpecCount(lineno, key, value);
        } else if (key == "basis") {
            if (value == "z")
                t.xBasis = false;
            else if (value == "x")
                t.xBasis = true;
            else
                specError(lineno, "basis must be z or x");
        } else if (key == "latency_us") {
            t.roundLatencyUs = parseSpecReal(lineno, key, value);
        } else if (key == "latency_scale") {
            t.latencyScale = parseSpecReal(lineno, key, value);
        } else if (key == "swap") {
            if (value == "gate")
                t.swap = SwapKind::GateSwap;
            else if (value == "ion")
                t.swap = SwapKind::IonSwap;
            else
                specError(lineno, "swap must be gate or ion");
        } else if (key == "grid-capacity" || key == "grid_capacity") {
            t.gridCapacity = parseSpecCount(lineno, key, value);
            if (t.gridCapacity == 0)
                specError(lineno, "grid-capacity must be >= 1");
        } else if (key == "idle_noise" || key == "idle-noise") {
            if (value == "uniform")
                t.idleNoise = IdleNoiseMode::UniformLatency;
            else if (value == "per-qubit" || value == "per_qubit" ||
                     value == "schedule")
                t.idleNoise = IdleNoiseMode::PerQubitSchedule;
            else
                specError(lineno,
                          "idle_noise must be uniform or per-qubit");
        } else if (key == "chunk_shots") {
            t.stop.chunkShots = parseSpecCount(lineno, key, value);
        } else if (key == "chunks_per_wave") {
            t.stop.chunksPerWave = parseSpecCount(lineno, key, value);
        } else if (key == "max_shots") {
            t.stop.maxShots = parseSpecCount(lineno, key, value);
        } else if (key == "target_rel_err") {
            t.stop.targetRelErr = parseSpecReal(lineno, key, value);
        } else if (key == "min_failures") {
            t.stop.minFailures = parseSpecCount(lineno, key, value);
        } else if (key == "staging_chunks") {
            t.stop.stagingChunks = parseSpecCount(lineno, key, value);
            if (t.stop.stagingChunks == 0)
                specError(lineno, "staging_chunks must be >= 1");
        } else if (key == "streaming") {
            if (value == "on" || value == "true")
                t.stream.enabled = true;
            else if (value == "off" || value == "false")
                t.stream.enabled = false;
            else
                specError(lineno, "streaming must be on or off");
        } else if (key == "streams") {
            t.stream.streams = parseSpecCount(lineno, key, value);
            if (t.stream.streams == 0)
                specError(lineno, "streams must be >= 1");
        } else if (key == "stream_flush") {
            if (value == "full-wave" || value == "full_wave" ||
                value == "fullwave")
                t.stream.deadlineFlush = false;
            else if (value == "deadline")
                t.stream.deadlineFlush = true;
            else
                specError(lineno,
                          "stream_flush must be full-wave or deadline");
        } else if (key == "seed") {
            t.seed = parseSpecCount(lineno, key, value);
        } else if (key == "bp") {
            if (value == "minsum")
                t.bp.variant = BpOptions::Variant::MinSum;
            else if (value == "productsum")
                t.bp.variant = BpOptions::Variant::ProductSum;
            else
                specError(lineno, "bp must be minsum or productsum");
        } else if (key == "bp_iters") {
            t.bp.maxIterations = parseSpecCount(lineno, key, value);
        } else {
            specError(lineno, "unknown task key '" + key + "'");
        }
    }

    std::vector<size_t> taskLines;
    for (const TaskBlock& block : blocks) {
        if (block.base.codeName.empty())
            specError(block.line, "[task] section needs a code");
        expandBlock(block, spec, taskLines);
    }
    if (spec.tasks.empty())
        throw std::runtime_error("campaign spec defines no tasks");
    checkDuplicateTaskIds(spec, taskLines);
    return spec;
}

} // namespace cyclone
