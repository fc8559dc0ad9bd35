/**
 * @file
 * Deterministic fault injection for the distributed campaign stack.
 *
 * A FaultPlan is a seeded schedule of failures bound to *named fault
 * points* — stable strings threaded through the spool, coordinator,
 * and artifact cache at every commit, heartbeat, and I/O site. Each
 * time an instrumented operation runs it calls faultPoint(name),
 * which counts the hit and evaluates the installed plan's rules
 * against it. With no plan installed (the production default) the
 * call is a single relaxed atomic load.
 *
 * Plan text grammar (env var CYCLONE_FAULT_PLAN, or FaultPlan::parse
 * for installFaultPlan); rules are ';'-separated:
 *
 *     point:action[@HIT][*COUNT]
 *     seed=N
 *
 * where HIT is the 1-based ordinal of the first affected hit
 * (default 1) and COUNT how many consecutive hits are affected
 * (default 1; `freeze` defaults to "forever"). Actions:
 *
 *     crash_before  _exit(kFaultCrashExitCode) before the commit
 *                   rename (tmp written, final name absent)
 *     crash_after   _exit after the rename (commit durable)
 *     torn          write a truncated prefix of the payload directly
 *                   to the FINAL path, then crash — models a
 *                   non-atomic writer dying mid-write
 *     transient     throw TransientIoError (see retry_policy.h) —
 *                   models EIO/ENOSPC-style hiccups
 *     freeze        heartbeat points only: silently skip the
 *                   heartbeat, so the lease goes stale while the
 *                   process is still alive
 *
 * Example: kill the coordinator just before it merges its second
 * record, and make the third spool write fail twice:
 *
 *     coord.record.merged:crash_before@2;spool.io.write:transient*2@3
 *
 * The fault-point catalog is documented in the README's distributed-
 * campaigns section; grep for faultPoint( to enumerate it in code.
 */

#ifndef CYCLONE_CAMPAIGN_FAULT_PLAN_H
#define CYCLONE_CAMPAIGN_FAULT_PLAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cyclone {

/** Exit code of an injected crash; tests assert on it to tell a
 *  planned kill from a genuine failure. */
constexpr int kFaultCrashExitCode = 70;

/** What an injected fault does when its rule fires. */
enum class FaultAction
{
    CrashBefore,
    CrashAfter,
    Torn,
    Transient,
    Freeze,
};

/** One parsed plan rule. */
struct FaultRule
{
    std::string point;
    FaultAction action = FaultAction::CrashBefore;
    /** 1-based ordinal of the first hit the rule affects. */
    size_t firstHit = 1;
    /** Number of consecutive hits affected. */
    size_t count = 1;
};

/** Parsed, installable fault schedule. */
struct FaultPlan
{
    std::vector<FaultRule> rules;
    uint64_t seed = 0x6661756c74ull; // "fault"

    bool empty() const { return rules.empty(); }

    /** Parse plan text; throws std::runtime_error on bad syntax. */
    static FaultPlan parse(const std::string& text);
};

/** Verdict of one faultPoint() call for the current hit. */
struct FaultDecision
{
    bool crashBefore = false;
    bool crashAfter = false;
    bool torn = false;
    bool transient = false;
    bool freeze = false;
};

/**
 * Install `plan` as the process-global schedule and reset all hit
 * counters. Install an empty plan to disarm. Overrides any plan
 * loaded from the environment.
 */
void installFaultPlan(FaultPlan plan);

/**
 * Count a hit of `point` and evaluate the installed plan. The first
 * call in a process lazily loads CYCLONE_FAULT_PLAN from the
 * environment if no plan was installed. Thread-safe; near-free when
 * no plan is armed.
 */
FaultDecision faultPoint(const char* point);

/**
 * Crash like a kill -9 at `point`: flush nothing, run no destructors,
 * _exit(kFaultCrashExitCode).
 */
[[noreturn]] void faultCrash(const char* point);

/**
 * Convenience for pure progress milestones (no payload to tear):
 * faultPoint(point), crash if either crash flag fired.
 */
void faultMilestone(const char* point);

/**
 * Seeded truncation length for a torn write of `size` payload bytes:
 * deterministic in (plan seed, point), always in [0, size).
 */
size_t faultTornLength(const char* point, size_t size);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_FAULT_PLAN_H
