/**
 * @file
 * The one persisted record format: self-describing key=value records
 * in CRC-32-checked text documents.
 *
 * A document is a magic line naming the format, one record per line,
 * and a trailing "crc xxxxxxxx" line holding the CRC-32 of everything
 * before it:
 *
 *     cyclone-shard-result v3
 *     shard content_hash=feedface12345678 task=2 shard=9 shots=640 ...
 *     crc 1c2d3e4f
 *
 * A record is a tag followed by key=value tokens. Readers look keys up
 * by name: unknown keys are skipped and missing keys read as zero (or
 * empty), so a writer that gains a counter needs no format bump and
 * old readers keep working. Stats structs write their whole field
 * table (stat_fields.h) through putFields() under a key prefix
 * ("decoder.", "stream.", ...). Checkpoints, shard descriptors and
 * records, the coordinator journal, the worker records and the spool
 * manifest all use this format.
 */

#ifndef CYCLONE_COMMON_KV_RECORD_H
#define CYCLONE_COMMON_KV_RECORD_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stat_fields.h"

namespace cyclone {

/** A document whose checksum failed, or that has none (torn or
 *  rotted): quarantine material, distinct from a well-formed document
 *  of the wrong kind. */
struct CorruptRecordError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Append a trailing "crc xxxxxxxx" line (CRC-32 of everything before
 * it) to a text document, as formatRecords does; parseRecords verifies
 * and strips it.
 */
std::string withCrcLine(std::string text);

/** One record: a tag and its key=value fields, in insertion order. */
class KvRecord
{
  public:
    explicit KvRecord(std::string tag) : tag_(std::move(tag)) {}

    const std::string& tag() const { return tag_; }

    /** Add a field. Text values are escaped, so any string round-trips;
     *  doubles are written with 17 significant digits (bit-exact). */
    void put(const std::string& key, const FieldValue& value);
    /** Add a 64-bit hash or seed, written as 16 hex digits. */
    void putHex(const std::string& key, uint64_t value);

    /** Field readers (decimal count, putHex value). A missing key
     *  reads as zero; a present value that does not parse throws
     *  std::runtime_error naming the key. */
    uint64_t count(const std::string& key) const;
    uint64_t hex(const std::string& key) const;

    /** Add every non-derived field of `table` read from `s`, each key
     *  prefixed with `prefix`. */
    template <typename S>
    void
    putFields(std::span<const StatField<std::type_identity_t<S>>> table,
              const S& s, const std::string& prefix = "")
    {
        for (const StatField<S>& f : table)
            if (!f.derived())
                put(prefix + f.name, f.get(s));
    }

    /** Inverse of putFields: store every field of `table` present in
     *  this record into `s`; absent fields are left untouched. */
    template <typename S>
    void
    getFields(std::span<const StatField<std::type_identity_t<S>>> table,
              S& s, const std::string& prefix = "") const
    {
        for (const StatField<S>& f : table) {
            if (f.derived())
                continue;
            const std::string key = prefix + f.name;
            if (const std::string* raw = find(key)) {
                FieldValue v = f.get(s);
                decode(key, *raw, v);
                f.set(s, v);
            }
        }
    }

    /** "tag key=value key=value" (no newline). */
    std::string line() const;

    /** Parse one line; throws std::runtime_error on a token without
     *  '=' or a repeated key. */
    static KvRecord parse(const std::string& line);

  private:
    const std::string* find(const std::string& key) const;
    /** Parse `raw` into the alternative `v` already holds. */
    static void decode(const std::string& key, const std::string& raw,
                       FieldValue& v);

    std::string tag_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** A whole document: `magic`, one line per record, CRC trailer. */
std::string formatRecords(const char* magic,
                          const std::vector<KvRecord>& records);

/**
 * Parse a document written by formatRecords. Throws CorruptRecordError
 * (tagged with `what`) when the checksum fails, std::runtime_error when
 * the magic line is not `magic` or a record is malformed.
 */
std::vector<KvRecord> parseRecords(const std::string& text,
                                   const char* magic, const char* what);

} // namespace cyclone

#endif // CYCLONE_COMMON_KV_RECORD_H
