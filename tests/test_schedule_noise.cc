/**
 * @file
 * Tests for schedule-derived per-qubit idle noise: twirl derivation
 * from the IR, degeneration to the uniform-latency model when idle
 * windows coincide, circuit-builder plumbing, and the noise and task
 * input validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/memory_circuit.h"
#include "noise/schedule_noise.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"
#include "run_task.h"

namespace cyclone {
namespace {

CssCode
surface13()
{
    return makeHgpCode(ClassicalCode::repetition(3), 3);
}

/** A schedule with one global op: every ion idles the full makespan. */
TimedSchedule
uniformIdleSchedule(size_t num_ions, double makespan_us)
{
    TimedSchedule sched;
    sched.numResources = 1;
    sched.numIons = static_cast<uint32_t>(num_ions);
    TimedOp op;
    op.category = OpCategory::Shuttle;
    op.resource = kNoResource;
    op.startUs = 0.0;
    op.durationUs = makespan_us;
    op.counted = false;
    sched.ops.push_back(op);
    return sched;
}

TEST(ScheduleNoise, TwirlsMeasuredIdleWindows)
{
    TimedSchedule sched;
    sched.numResources = 1;
    sched.numIons = 3;
    // Qubit 0 busy 400 us, qubit 1 idle, makespan 1000 us.
    TimedOp gate;
    gate.category = OpCategory::Gate;
    gate.resource = 0;
    gate.ionA = 0;
    gate.startUs = 0.0;
    gate.durationUs = 400.0;
    sched.ops.push_back(gate);
    TimedOp tail;
    tail.category = OpCategory::Measure;
    tail.resource = 0;
    tail.ionA = 2;
    tail.startUs = 400.0;
    tail.durationUs = 600.0;
    sched.ops.push_back(tail);

    const double p = 1e-3;
    const double t_coh = coherenceTimeSeconds(p);
    const auto twirls = perQubitIdleFromSchedule(sched, 2, p);
    ASSERT_EQ(twirls.size(), 2u);
    const PauliTwirl busy_expect = twirlDecoherence(600.0, t_coh, t_coh);
    const PauliTwirl idle_expect = twirlDecoherence(1000.0, t_coh, t_coh);
    EXPECT_DOUBLE_EQ(twirls[0].px, busy_expect.px);
    EXPECT_DOUBLE_EQ(twirls[0].pz, busy_expect.pz);
    EXPECT_DOUBLE_EQ(twirls[1].px, idle_expect.px);
    EXPECT_GT(twirls[1].total(), twirls[0].total());
}

TEST(ScheduleNoise, LatencyScaleScalesTheWindows)
{
    const TimedSchedule sched = uniformIdleSchedule(4, 2000.0);
    const double p = 1e-3;
    const double t_coh = coherenceTimeSeconds(p);
    const auto half = perQubitIdleFromSchedule(sched, 4, p, 0.5);
    const PauliTwirl expect = twirlDecoherence(1000.0, t_coh, t_coh);
    for (const PauliTwirl& twirl : half) {
        EXPECT_DOUBLE_EQ(twirl.px, expect.px);
        EXPECT_DOUBLE_EQ(twirl.pz, expect.pz);
    }
}

TEST(ScheduleNoise, DegeneratesToUniformModelOnEqualIdle)
{
    // When every data qubit has the same idle window, the per-qubit
    // circuit is the uniform-latency circuit, operation for operation.
    const CssCode code = surface13();
    const SyndromeSchedule schedule = makeXThenZSchedule(code);
    const double p = 2e-3;
    const double latency = 50000.0;

    MemoryCircuitOptions uniform;
    uniform.rounds = 3;
    uniform.noise = NoiseModel::withLatency(p, latency);

    MemoryCircuitOptions per_qubit;
    per_qubit.rounds = 3;
    per_qubit.noise = NoiseModel::uniform(p);
    per_qubit.perQubitIdle = perQubitIdleFromSchedule(
        uniformIdleSchedule(code.numQubits(), latency),
        code.numQubits(), p);

    const Circuit a = buildZMemoryCircuit(code, schedule, uniform);
    const Circuit b = buildZMemoryCircuit(code, schedule, per_qubit);
    EXPECT_EQ(a.toString(), b.toString());
}

TEST(ScheduleNoise, UnequalIdleChangesTheCircuit)
{
    const CssCode code = surface13();
    const SyndromeSchedule schedule = makeXThenZSchedule(code);
    const double p = 2e-3;
    const double latency = 50000.0;

    TimedSchedule sched = uniformIdleSchedule(code.numQubits(), latency);
    TimedOp gate;
    gate.category = OpCategory::Gate;
    gate.resource = 0;
    gate.ionA = 0;
    gate.startUs = 0.0;
    gate.durationUs = 20000.0; // Qubit 0 idles less.
    sched.ops.push_back(gate);

    MemoryCircuitOptions uniform;
    uniform.rounds = 3;
    uniform.noise = NoiseModel::withLatency(p, latency);
    MemoryCircuitOptions per_qubit;
    per_qubit.rounds = 3;
    per_qubit.noise = NoiseModel::uniform(p);
    per_qubit.perQubitIdle =
        perQubitIdleFromSchedule(sched, code.numQubits(), p);

    const Circuit a = buildZMemoryCircuit(code, schedule, uniform);
    const Circuit b = buildZMemoryCircuit(code, schedule, per_qubit);
    EXPECT_NE(a.toString(), b.toString());
}

TEST(ScheduleNoise, CompiledTaskDerivesPerQubitIdle)
{
    // End-to-end: compile -> IR -> per-qubit twirls -> circuit -> DEM
    // -> decode, in one campaign task.
    TaskSpec task = memoryTask("surface3", 2e-3, 3, 120);
    task.compileLatency = true;
    task.architecture = Architecture::Cyclone;
    task.idleNoise = IdleNoiseMode::PerQubitSchedule;
    const TaskResult r = runTask(task, 17);
    EXPECT_EQ(r.logicalErrorRate.trials, 120u);
    EXPECT_GT(r.demMechanisms, 0u);
}

TEST(ScheduleNoise, InputValidation)
{
    const TimedSchedule sched = uniformIdleSchedule(2, 100.0);
    EXPECT_THROW(perQubitIdleFromSchedule(sched, 2, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(perQubitIdleFromSchedule(sched, 2, 1.5),
                 std::invalid_argument);
    EXPECT_THROW(perQubitIdleFromSchedule(sched, 2, 1e-3, -1.0),
                 std::invalid_argument);
    EXPECT_THROW(perQubitIdleFromSchedule(sched, 5, 1e-3),
                 std::invalid_argument);
}

TEST(NoiseValidation, WithLatencyRejectsBadInputs)
{
    EXPECT_THROW(NoiseModel::withLatency(0.0, 100.0),
                 std::invalid_argument);
    EXPECT_THROW(NoiseModel::withLatency(-1e-3, 100.0),
                 std::invalid_argument);
    EXPECT_THROW(NoiseModel::withLatency(1.0, 100.0),
                 std::invalid_argument);
    EXPECT_THROW(
        NoiseModel::withLatency(std::nan(""), 100.0),
        std::invalid_argument);
    EXPECT_THROW(NoiseModel::withLatency(1e-3, -5.0),
                 std::invalid_argument);
    EXPECT_THROW(NoiseModel::withLatency(1e-3, std::nan("")),
                 std::invalid_argument);
    EXPECT_THROW(
        NoiseModel::withLatency(1e-3,
                                std::numeric_limits<double>::infinity()),
        std::invalid_argument);
    // Boundary cases that must keep working.
    EXPECT_NO_THROW(NoiseModel::withLatency(1e-3, 0.0));
    EXPECT_NO_THROW(NoiseModel::uniform(0.0)); // Noiseless circuit.
    EXPECT_THROW(NoiseModel::uniform(-0.1), std::invalid_argument);
    EXPECT_THROW(NoiseModel::uniform(1.0), std::invalid_argument);
}

TEST(NoiseValidation, BadTaskInputsFailTheTask)
{
    // Each bad input fails its own task with an error: no throw out of
    // runCampaign, no abort, and the good task beside them runs clean.
    const size_t n = surface13().numQubits();
    std::vector<TaskSpec> bad;
    for (double p : {-1e-3, 1.0, std::nan("")})
        bad.push_back(memoryTask("surface3", p, 0, 10));
    for (double latency : {-10.0, std::nan("")})
        bad.push_back(memoryTask("surface3", 1e-3, 0, 10, latency));
    // Per-qubit mode needs a compiled round or one twirl per qubit.
    for (size_t twirls : {size_t{0}, size_t{5}}) {
        TaskSpec task = memoryTask("surface3", 1e-3, 0, 10);
        task.idleNoise = IdleNoiseMode::PerQubitSchedule;
        task.perQubitIdle.resize(twirls);
        bad.push_back(task);
    }
    TaskSpec good = memoryTask("surface3", 1e-3, 0, 10);
    good.idleNoise = IdleNoiseMode::PerQubitSchedule;
    good.perQubitIdle.resize(n);

    CampaignSpec spec;
    spec.threads = 2;
    spec.tasks = bad;
    spec.tasks.push_back(good);
    CampaignResult result;
    ASSERT_NO_THROW(result = runCampaign(spec));
    ASSERT_EQ(result.tasks.size(), bad.size() + 1);
    for (size_t i = 0; i < bad.size(); ++i)
        EXPECT_NE(result.tasks[i].error, "") << "task " << i;
    const std::string& miscounted = result.tasks[bad.size() - 1].error;
    EXPECT_NE(miscounted.find("have 5, need " + std::to_string(n)),
              std::string::npos)
        << miscounted;
    EXPECT_EQ(result.tasks.back().error, "");
    EXPECT_EQ(result.tasks.back().logicalErrorRate.trials, 10u);
}

} // namespace
} // namespace cyclone
