/**
 * @file
 * expectTasksIdentical: the identity check of two campaign results.
 * Every deterministic field of every task must match — counts, rates
 * and intervals, chunking, the DEM's size, every deterministic decoder
 * counter and the error text. Timing fields are not compared.
 */

#ifndef CYCLONE_TESTS_EXPECT_TASKS_H
#define CYCLONE_TESTS_EXPECT_TASKS_H

#include <gtest/gtest.h>

#include <cstddef>

#include "campaign/campaign.h"

namespace cyclone {

inline void
expectTasksIdentical(const CampaignResult& a, const CampaignResult& b)
{
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t i = 0; i < a.tasks.size(); ++i) {
        const TaskResult& x = a.tasks[i];
        const TaskResult& y = b.tasks[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.contentHash, y.contentHash);
        EXPECT_EQ(x.logicalErrorRate.trials, y.logicalErrorRate.trials);
        EXPECT_EQ(x.logicalErrorRate.successes,
                  y.logicalErrorRate.successes);
        EXPECT_EQ(x.logicalErrorRate.rate, y.logicalErrorRate.rate);
        EXPECT_EQ(x.wilson, y.wilson);
        EXPECT_EQ(x.perRoundErrorRate, y.perRoundErrorRate);
        EXPECT_EQ(x.chunks, y.chunks);
        EXPECT_EQ(x.stoppedEarly, y.stoppedEarly);
        EXPECT_EQ(x.demDetectors, y.demDetectors);
        EXPECT_EQ(x.demMechanisms, y.demMechanisms);
        EXPECT_EQ(deterministicMismatch(x.decoder, y.decoder), "")
            << "task " << i;
        EXPECT_EQ(x.error, y.error);
    }
}

} // namespace cyclone

#endif // CYCLONE_TESTS_EXPECT_TASKS_H
