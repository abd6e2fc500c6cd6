/**
 * @file
 * Linear-time tripwire for the leaf schedulers: one synthetic leaf of
 * 100k ops goes through RCP and LPFS at k=4, d=unbounded. Each
 * timestep must cost about the size of the ready list, so each case
 * takes about 50 ms in an optimized build. Per-step work proportional
 * to the whole leaf (RCP aging every op's slack, LPFS rescanning
 * entries scheduled long ago) made the same cases about 2 s and 20 s.
 * The ctest TIMEOUT in tests/CMakeLists.txt is generous, so it catches
 * only slowdowns of that larger size; the assertions themselves are
 * deterministic: a clean validator and the exact makespan.
 */

#include <gtest/gtest.h>

#include <string>

#include "arch/multi_simd.hh"
#include "ir/module.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "sched/validator.hh"
#include "support/diagnostic.hh"

namespace {

using namespace msq;

constexpr unsigned longChain = 24000;

/**
 * Five serial X chains on their own qubits, of lengths 24000 (a),
 * 3 x 22000 (b, c, d) and 1500 (e), plus a fan of 8500 independent X
 * gates on distinct qubits: 100k ops, makespan exactly longChain. The
 * shortest chain holds op 0, so under LPFS it waits at the head of the
 * ready list while the four longer chains occupy the four regions, and
 * every other entry is scheduled from behind it until b, c and d end.
 */
Module
chainsAndFan()
{
    Module mod("chains_and_fan");
    auto chain = [&mod](const std::string &name, unsigned length) {
        QubitId q = mod.addLocal(name);
        for (unsigned i = 0; i < length; ++i)
            mod.addGate(GateKind::X, {q});
    };
    chain("e", 1500);
    chain("a", longChain);
    for (const char *name : {"b", "c", "d"})
        chain(name, 22000);
    for (QubitId q : mod.addRegister("fan", 8500))
        mod.addGate(GateKind::X, {q});
    return mod;
}

void
expectCleanAtChainLength(const LeafScheduler &scheduler)
{
    Module mod = chainsAndFan();
    ASSERT_EQ(mod.numOps(), 100000u);
    MultiSimdArch arch(4);
    LeafSchedule sched = scheduler.schedule(mod, arch);
    DiagnosticEngine diags;
    EXPECT_TRUE(validateLeafSchedule(sched, arch, false, &diags));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_EQ(sched.computeTimesteps(), longChain);
}

TEST(LeafScale, RcpSchedulesChainsAndFanAtChainLength)
{
    expectCleanAtChainLength(RcpScheduler());
}

TEST(LeafScale, LpfsSchedulesChainsAndFanAtChainLength)
{
    expectCleanAtChainLength(LpfsScheduler());
}

} // namespace
