/**
 * @file
 * Field tables: the one schema of every stats struct.
 *
 * Each struct whose counters are merged across workers, reported, or
 * persisted (BpOsdStats, StreamDecodeStats, SpoolStats, CacheStats)
 * lists its fields once, in a table of StatField entries: the external
 * name, the member, how two instances merge, and whether the value is
 * deterministic or timing. Merging (mergeStats), the JSON and CSV
 * writers (campaign_io.cc), the key=value record format (kv_record.h)
 * and the identity tests (deterministicMismatch) all walk the table,
 * so adding a counter takes its member and one table line. The
 * persisted records (checkpoint tasks, shard records, journal
 * entries, ...) list their own scalars in file-local tables the same
 * way.
 *
 * A table may also list derived values (ratios computed from the
 * counters, given as const member functions): they are reported like
 * any other field but never merged or persisted.
 */

#ifndef CYCLONE_COMMON_STAT_FIELDS_H
#define CYCLONE_COMMON_STAT_FIELDS_H

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <type_traits>
#include <variant>

namespace cyclone {

/** How merging two instances combines one field. */
enum class MergeRule
{
    /** Add (counters, summed seconds). */
    Sum,
    /** Keep the larger value (high-water marks). */
    Max,
    /** Keep the first non-zero / non-empty value (configuration echoed
     *  by every worker, such as a deadline or the backend name). */
    First,
};

/** Whether a field is covered by the bit-identity contract. */
enum class FieldKind
{
    /** Identical for identical inputs at any thread or worker count. */
    Deterministic,
    /** Measured on a clock: varies from run to run. */
    Timing,
};

/** One field's value, read out of its struct. */
using FieldValue = std::variant<size_t, double, bool, std::string>;

/** One entry of a struct's field table. */
template <typename S>
struct StatField
{
    using Derived = double (S::*)() const;
    using Member = std::variant<size_t S::*, double S::*, bool S::*,
                                std::string S::*, Derived>;

    const char* name;
    Member member;
    MergeRule merge = MergeRule::Sum;
    FieldKind kind = FieldKind::Deterministic;

    bool derived() const { return std::holds_alternative<Derived>(member); }

    FieldValue
    get(const S& s) const
    {
        return std::visit(
            [&](auto m) -> FieldValue {
                if constexpr (std::is_same_v<decltype(m), Derived>)
                    return (s.*m)();
                else
                    return s.*m;
            },
            member);
    }

    /** Store `v`, which must hold this field's type (as get() returns
     *  it). Derived fields ignore the call. */
    void
    set(S& s, const FieldValue& v) const
    {
        std::visit(
            [&](auto m) {
                if constexpr (!std::is_same_v<decltype(m), Derived>) {
                    using T = std::remove_reference_t<decltype(s.*m)>;
                    s.*m = std::get<T>(v);
                }
            },
            member);
    }

    /** Combine `from`'s value into `into` by this field's rule; bool
     *  and text fields always keep the first set value. */
    void
    mergeInto(S& into, const S& from) const
    {
        std::visit(
            [&](auto m) {
                if constexpr (!std::is_same_v<decltype(m), Derived>) {
                    auto& dst = into.*m;
                    const auto& src = from.*m;
                    using T = std::remove_cvref_t<decltype(dst)>;
                    if constexpr (std::is_same_v<T, size_t> ||
                                  std::is_same_v<T, double>) {
                        if (merge == MergeRule::Sum) {
                            dst += src;
                            return;
                        }
                        if (merge == MergeRule::Max) {
                            dst = std::max(dst, src);
                            return;
                        }
                    }
                    if (dst == T{})
                        dst = src;
                }
            },
            member);
    }
};

/** Merge `from` into `into` field by field, by each field's rule. */
template <typename S>
void
mergeStats(S& into, const S& from)
{
    for (const StatField<S>& f : S::fields())
        f.mergeInto(into, from);
}

/**
 * Name of the first deterministic, non-derived field on which `a` and
 * `b` differ, or "" when they agree: the bit-identity contract of a
 * stats struct, checked over every field its table lists.
 */
template <typename S>
std::string
deterministicMismatch(const S& a, const S& b)
{
    for (const StatField<S>& f : S::fields())
        if (f.kind == FieldKind::Deterministic && !f.derived() &&
            f.get(a) != f.get(b))
            return f.name;
    return "";
}

} // namespace cyclone

#endif // CYCLONE_COMMON_STAT_FIELDS_H
