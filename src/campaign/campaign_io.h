/**
 * @file
 * Campaign serialization: JSON/CSV exports, resumable checkpoints,
 * and the declarative spec-file format.
 *
 * Spec files are INI-style. Keys before the first `[task]` section set
 * campaign fields (name, seed, threads); each `[task]` section defines
 * one or more tasks — the `arch` and `p` keys accept comma-separated
 * lists that expand to the cartesian product of points:
 *
 *     name = bb-sweep
 *     seed = 7
 *
 *     [task]
 *     code = bb72
 *     arch = cyclone, baseline
 *     p = 1e-3, 2e-3, 4e-3
 *     max_shots = 20000
 *     target_rel_err = 0.1
 *
 * Checkpoints hold one key=value record (kv_record.h) per completed
 * task, keyed by content hash, so a rerun of an edited spec
 * re-executes exactly the tasks whose definition changed. A spool's
 * journal (journal.txt) is the same document. The JSON
 * `decoder`, `streaming`, `cache` and `spool` objects and the CSV
 * decoder and `stream_*` columns are rendered from the stats structs'
 * field tables (stat_fields.h).
 */

#ifndef CYCLONE_CAMPAIGN_CAMPAIGN_IO_H
#define CYCLONE_CAMPAIGN_CAMPAIGN_IO_H

#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace cyclone {

/** Serialize a campaign result as a JSON document. */
std::string campaignResultToJson(const CampaignResult& result);

/** Serialize the per-task table as CSV with a header row. */
std::string campaignResultToCsv(const CampaignResult& result);

/** Write a string to a file (atomically via rename). */
bool writeTextFile(const std::string& path, const std::string& content);

/**
 * The checkpoint document of every successfully completed task of
 * `tasks`: counts, the fields a restore copies back, and the decoder
 * and streaming stats, under a CRC line.
 */
std::string formatCheckpoint(const std::vector<TaskResult>& tasks);

/** Parse a checkpoint document (tasks marked fromCheckpoint). Throws
 *  CorruptRecordError on a bad checksum, std::runtime_error on
 *  malformed records. */
CampaignCheckpoint parseCheckpoint(const std::string& text);

/**
 * Save every successfully completed task of `result` as a checkpoint.
 * Returns false on I/O failure.
 */
bool saveCheckpoint(const CampaignResult& result, const std::string& path);

/**
 * Load a checkpoint file. Returns false when the file is missing,
 * fails its CRC, or is malformed — including checkpoints of the older
 * positional format, whose tasks simply run again (checkpoints are
 * advisory caches: a bad one is ignored, not fatal).
 */
bool loadCheckpoint(const std::string& path, CampaignCheckpoint& out);

/** Parse a count as spec files and runner flags take it: digits only
 *  (no sign), nothing after them. Throws std::invalid_argument saying
 *  what is wrong with `text`. */
size_t parseCount(const std::string& text);

/** Parse a real number as spec files and runner flags take it: finite
 *  (no nan or inf), nothing after it. Throws std::invalid_argument
 *  saying what is wrong. */
double parseReal(const std::string& text);

/** Parse a spec document; throws std::runtime_error with a line. */
CampaignSpec parseCampaignSpec(const std::string& text);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_CAMPAIGN_IO_H
