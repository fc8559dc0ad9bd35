/**
 * @file
 * Tests for the TimedSchedule IR: structural validity of every
 * compiler's emitted timeline, exact agreement between the IR-derived
 * summary and the CompileResult fields, the compiler each
 * architecture dispatches to, and TimeBreakdown / architecture-name
 * plumbing.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "compiler/architecture.h"
#include "compiler/compiler.h"
#include "compiler/ideal.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"

namespace cyclone {
namespace {

TEST(TimeBreakdown, AddRoutesToTheRightBucket)
{
    TimeBreakdown b;
    b.add(OpCategory::Gate, 1.0);
    b.add(OpCategory::Shuttle, 2.0);
    b.add(OpCategory::Junction, 4.0);
    b.add(OpCategory::Swap, 8.0);
    b.add(OpCategory::Measure, 16.0);
    b.add(OpCategory::Prep, 32.0);
    EXPECT_DOUBLE_EQ(b.gateUs, 1.0);
    EXPECT_DOUBLE_EQ(b.shuttleUs, 2.0);
    EXPECT_DOUBLE_EQ(b.junctionUs, 4.0);
    EXPECT_DOUBLE_EQ(b.swapUs, 8.0);
    EXPECT_DOUBLE_EQ(b.measureUs, 16.0);
    EXPECT_DOUBLE_EQ(b.prepUs, 32.0);
    EXPECT_DOUBLE_EQ(b.total(), 63.0);
    for (OpCategory cat :
         {OpCategory::Gate, OpCategory::Shuttle, OpCategory::Junction,
          OpCategory::Swap, OpCategory::Measure, OpCategory::Prep}) {
        b.add(cat, 1.0);
    }
    EXPECT_DOUBLE_EQ(b.total(), 69.0);
    EXPECT_DOUBLE_EQ(b.of(OpCategory::Gate), 2.0);
    EXPECT_DOUBLE_EQ(b.of(OpCategory::Prep), 33.0);
}

TEST(TimeBreakdown, PlusEqualsAccumulatesEveryBucket)
{
    TimeBreakdown a;
    a.add(OpCategory::Gate, 1.5);
    a.add(OpCategory::Measure, 2.5);
    TimeBreakdown b;
    b.add(OpCategory::Gate, 0.5);
    b.add(OpCategory::Swap, 3.0);
    a += b;
    EXPECT_DOUBLE_EQ(a.gateUs, 2.0);
    EXPECT_DOUBLE_EQ(a.swapUs, 3.0);
    EXPECT_DOUBLE_EQ(a.measureUs, 2.5);
    EXPECT_DOUBLE_EQ(a.total(), 7.5);
    // Self-accumulation doubles everything.
    a += a;
    EXPECT_DOUBLE_EQ(a.total(), 15.0);
    // Empty breakdown is the identity.
    TimeBreakdown zero;
    a += zero;
    EXPECT_DOUBLE_EQ(a.total(), 15.0);
}

TEST(Architecture, NameParseRoundTripAllSix)
{
    for (Architecture arch : kAllArchitectures) {
        const char* name = architectureName(arch);
        const auto parsed = parseArchitecture(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, arch) << name;
    }
}

TEST(Architecture, AliasesParse)
{
    EXPECT_EQ(parseArchitecture("baseline"), Architecture::BaselineGrid);
    EXPECT_EQ(parseArchitecture("alternate"),
              Architecture::AlternateGrid);
    EXPECT_EQ(parseArchitecture("dynamic"), Architecture::DynamicGrid);
    EXPECT_EQ(parseArchitecture("ring"), Architecture::RingEjf);
    EXPECT_EQ(parseArchitecture("mesh"), Architecture::MeshJunction);
    EXPECT_EQ(parseArchitecture("cyclone"), Architecture::Cyclone);
    EXPECT_FALSE(parseArchitecture("warp").has_value());
    EXPECT_FALSE(parseArchitecture("").has_value());
    // Canonical names are aliases of themselves.
    EXPECT_EQ(parseArchitecture("mesh-junction"),
              Architecture::MeshJunction);
}

TEST(TimedScheduleCheck, RejectsOverlapsAndBadOps)
{
    TimedSchedule sched;
    sched.numResources = 2;
    sched.numIons = 1;
    TimedOp a;
    a.resource = 0;
    a.startUs = 0.0;
    a.durationUs = 10.0;
    sched.ops.push_back(a);
    TimedOp b = a;
    b.startUs = 10.0; // Abutting is fine.
    sched.ops.push_back(b);
    EXPECT_TRUE(sched.validate());

    TimedOp c = a;
    c.startUs = 15.0; // Overlaps b's [10, 20).
    sched.ops.push_back(c);
    std::string why;
    EXPECT_FALSE(sched.validate(&why));
    EXPECT_NE(why.find("double booked"), std::string::npos);

    sched.ops.pop_back();
    TimedOp d;
    d.resource = 7; // Out of range.
    sched.ops.push_back(d);
    EXPECT_FALSE(sched.validate(&why));
    EXPECT_NE(why.find("out of range"), std::string::npos);

    sched.ops.pop_back();
    TimedOp e;
    e.resource = kNoResource;
    e.durationUs = -1.0;
    sched.ops.push_back(e);
    EXPECT_FALSE(sched.validate(&why));
    EXPECT_NE(why.find("negative"), std::string::npos);
}

TEST(TimedScheduleCheck, ResourceFreeOpsSkipOverlapCheck)
{
    // Lockstep barriers / conservative physical ops share time freely.
    TimedSchedule sched;
    sched.numResources = 1;
    sched.numIons = 2;
    for (int i = 0; i < 3; ++i) {
        TimedOp op;
        op.resource = kNoResource;
        op.ionA = static_cast<uint32_t>(i % 2);
        op.startUs = 0.0;
        op.durationUs = 5.0;
        sched.ops.push_back(op);
    }
    EXPECT_TRUE(sched.validate());
    EXPECT_DOUBLE_EQ(sched.makespan(), 5.0);
}

TEST(TimedScheduleCheck, IonBusyChargesBothIonsOfCountedOps)
{
    TimedSchedule sched;
    sched.numResources = 1;
    sched.numIons = 3;
    TimedOp gate;
    gate.category = OpCategory::Gate;
    gate.resource = 0;
    gate.ionA = 2;
    gate.ionB = 0;
    gate.startUs = 0.0;
    gate.durationUs = 7.0;
    sched.ops.push_back(gate);
    TimedOp hold = gate;
    hold.startUs = 7.0;
    hold.counted = false; // Holds never charge ions.
    sched.ops.push_back(hold);
    const auto busy = sched.ionBusyUs();
    EXPECT_DOUBLE_EQ(busy[0], 7.0);
    EXPECT_DOUBLE_EQ(busy[1], 0.0);
    EXPECT_DOUBLE_EQ(busy[2], 7.0);
    const auto idle = sched.ionIdleUs();
    EXPECT_DOUBLE_EQ(idle[1], sched.makespan());
    EXPECT_DOUBLE_EQ(idle[0], sched.makespan() - 7.0);
}

TEST(WaitHistogramCheck, BinsByLogTwo)
{
    WaitHistogram hist;
    hist.add(0.0);   // Ignored.
    hist.add(-3.0);  // Ignored.
    hist.add(0.5);   // Bin 0: (0, 1).
    hist.add(1.0);   // Bin 1: [1, 2).
    hist.add(3.0);   // Bin 2: [2, 4).
    hist.add(1e9);   // Clamped to the last bin.
    EXPECT_EQ(hist.waits, 4u);
    EXPECT_EQ(hist.bins[0], 1u);
    EXPECT_EQ(hist.bins[1], 1u);
    EXPECT_EQ(hist.bins[2], 1u);
    EXPECT_EQ(hist.bins[WaitHistogram::kBins - 1], 1u);
    EXPECT_DOUBLE_EQ(hist.totalWaitUs, 0.5 + 1.0 + 3.0 + 1e9);
}

/** The IR summary must match CompileResult bit-for-bit. */
void
expectSummaryMatchesIr(const CompileResult& r, const std::string& label)
{
    std::string why;
    EXPECT_TRUE(r.schedule.validate(&why)) << label << ": " << why;
    EXPECT_FALSE(r.schedule.ops.empty()) << label;
    EXPECT_EQ(r.execTimeUs, r.schedule.makespan()) << label;
    const TimeBreakdown derived = r.schedule.breakdown();
    EXPECT_EQ(r.serialized.gateUs, derived.gateUs) << label;
    EXPECT_EQ(r.serialized.shuttleUs, derived.shuttleUs) << label;
    EXPECT_EQ(r.serialized.junctionUs, derived.junctionUs) << label;
    EXPECT_EQ(r.serialized.swapUs, derived.swapUs) << label;
    EXPECT_EQ(r.serialized.measureUs, derived.measureUs) << label;
    EXPECT_EQ(r.serialized.prepUs, derived.prepUs) << label;
    // Gate ops are counted one IR entry each.
    const auto counts = r.schedule.opCounts();
    EXPECT_EQ(counts[static_cast<size_t>(OpCategory::Gate)], r.gateOps)
        << label;
}

class IrOnCodes : public ::testing::TestWithParam<std::string>
{};

TEST_P(IrOnCodes, AllSixArchitecturesEmitValidExactIr)
{
    const CssCode code = GetParam() == "surface13"
        ? makeHgpCode(ClassicalCode::repetition(3), 3)
        : catalog::byName(GetParam());
    const SyndromeSchedule schedule = makeXThenZSchedule(code);
    // The compiler each case of compileCodesign's switch runs.
    const char* const compilerNames[] = {
        "baseline-ejf", "alternate-grid-ejf", "dynamic-grid",
        "ring-ejf",     "mesh-junction",      "cyclone",
    };
    static_assert(std::size(compilerNames) == kAllArchitectures.size());
    for (size_t i = 0; i < kAllArchitectures.size(); ++i) {
        const Architecture arch = kAllArchitectures[i];
        CodesignConfig config;
        config.architecture = arch;
        const CompileResult r = compileCodesign(code, schedule, config);
        const std::string label =
            GetParam() + "/" + architectureName(arch);
        EXPECT_EQ(r.compilerName, compilerNames[i]) << label;
        expectSummaryMatchesIr(r, label);
        EXPECT_GT(r.execTimeUs, 0.0);
        EXPECT_GE(r.serialized.total(), r.execTimeUs * 0.999);
    }
}

INSTANTIATE_TEST_SUITE_P(Codes, IrOnCodes,
                         ::testing::Values("bb72", "surface13",
                                           "hgp225"));

TEST(IdealIr, MakespanIsParallelTimeAndBreakdownIsSerialTime)
{
    const CssCode code = catalog::bb72();
    const SyndromeSchedule schedule = makeXThenZSchedule(code);
    const IdealLatency lat = idealLatencies(code, schedule);
    std::string why;
    EXPECT_TRUE(lat.schedule.validate(&why)) << why;
    EXPECT_EQ(lat.schedule.makespan(), lat.parallelUs);
    EXPECT_NEAR(lat.schedule.breakdown().total(), lat.serialUs,
                lat.serialUs * 1e-12);
    const auto counts = lat.schedule.opCounts();
    EXPECT_EQ(counts[static_cast<size_t>(OpCategory::Gate)], lat.gates);
    EXPECT_EQ(counts[static_cast<size_t>(OpCategory::Measure)],
              code.numStabs());
}

TEST(CycloneIr, EveryDataQubitIsGatedAndNoResourceIsDoubleBooked)
{
    const CssCode code = catalog::bb72();
    CodesignConfig config;
    config.architecture = Architecture::Cyclone;
    const SyndromeSchedule schedule = makeXThenZSchedule(code);
    const CompileResult r = compileCodesign(code, schedule, config);
    const auto busy = r.schedule.ionBusyUs();
    for (size_t q = 0; q < code.numQubits(); ++q)
        EXPECT_GT(busy[q], 0.0) << "data qubit " << q;
    // Per-qubit idle windows are strictly inside the round.
    for (double idle : r.schedule.ionIdleUs())
        EXPECT_LT(idle, r.execTimeUs);
    // Cyclone is roadblock-free: no recorded waits.
    EXPECT_EQ(r.schedule.waitHistogram().waits, 0u);
}

TEST(EjfIr, RoadblockedCompileRecordsWaits)
{
    // hgp225 on the baseline grid roadblocks (see test_compilers);
    // those waits must surface in the IR histogram.
    const CssCode code = catalog::hgp225();
    const SyndromeSchedule schedule = makeXThenZSchedule(code);
    CodesignConfig config;
    config.architecture = Architecture::BaselineGrid;
    const CompileResult r = compileCodesign(code, schedule, config);
    EXPECT_GT(r.trapRoadblocks, 0u);
    const WaitHistogram waits = r.schedule.waitHistogram();
    EXPECT_GT(waits.waits, 0u);
    EXPECT_GT(waits.totalWaitUs, 0.0);
}

} // namespace
} // namespace cyclone
