#include "replay.hh"

#include <vector>

#include "support/strings.hh"

using namespace msq;

namespace perfbench {

std::string
replayLeafSchedule(const Module &mod, const LeafSchedule &sched, unsigned k,
                   uint64_t d)
{
    const size_t num_ops = mod.numOps();
    const size_t num_qubits = mod.numQubits();

    // Per qubit, the ops that touch it in program order; an op may run
    // only when it is the next unplayed op on every one of its qubits.
    std::vector<std::vector<uint32_t>> per_qubit(num_qubits);
    for (uint32_t i = 0; i < num_ops; ++i) {
        for (QubitId q : mod.op(i).operands) {
            if (q >= num_qubits)
                return csprintf("op %u: operand %u out of range", i, q);
            if (per_qubit[q].empty() || per_qubit[q].back() != i)
                per_qubit[q].push_back(i);
        }
    }
    std::vector<size_t> next(num_qubits, 0);
    std::vector<bool> placed(num_ops, false);
    // Step in which a qubit was last touched, offset by one (0 = never).
    std::vector<uint64_t> touched(num_qubits, 0);
    uint64_t placed_count = 0;

    for (ScheduleWalker walker(sched); !walker.atEnd(); walker.next()) {
        const TimestepView step = walker.step();
        const uint64_t s = walker.index();
        if (step.activeRegions() > k)
            return csprintf("step %llu: %u active regions > k=%u",
                            static_cast<unsigned long long>(s),
                            step.activeRegions(), k);
        std::vector<bool> region_seen(k, false);
        for (RegionSlotView slot : step) {
            const unsigned r = slot.region();
            if (r >= k || region_seen[r])
                return csprintf("step %llu: region %u invalid or repeated",
                                static_cast<unsigned long long>(s), r);
            region_seen[r] = true;
            uint64_t operands = 0;
            for (uint32_t op_index : slot.ops()) {
                if (op_index >= num_ops || placed[op_index])
                    return csprintf("step %llu: op %u out of range or "
                                    "placed twice",
                                    static_cast<unsigned long long>(s),
                                    op_index);
                const Operation &op = mod.op(op_index);
                if (op.kind != slot.kind())
                    return csprintf("step %llu region %u: op %u of another "
                                    "gate kind",
                                    static_cast<unsigned long long>(s), r,
                                    op_index);
                for (QubitId q : op.operands) {
                    if (touched[q] == s + 1)
                        return csprintf("step %llu: qubit %u used twice",
                                        static_cast<unsigned long long>(s),
                                        q);
                    touched[q] = s + 1;
                    if (next[q] >= per_qubit[q].size() ||
                        per_qubit[q][next[q]] != op_index)
                        return csprintf("step %llu: op %u runs before an "
                                        "earlier op on qubit %u",
                                        static_cast<unsigned long long>(s),
                                        op_index, q);
                    ++next[q];
                }
                operands += op.operands.size();
                placed[op_index] = true;
                ++placed_count;
            }
            if (operands > d)
                return csprintf("step %llu region %u: %llu operands > d",
                                static_cast<unsigned long long>(s), r,
                                static_cast<unsigned long long>(operands));
        }
    }
    if (placed_count != num_ops)
        return csprintf("%llu of %zu ops scheduled",
                        static_cast<unsigned long long>(placed_count),
                        num_ops);
    return "";
}

namespace {

/** Ops of one region in one step of a hand-built schedule. */
struct DraftRegion
{
    unsigned region;
    std::vector<uint32_t> ops;
};

/** A schedule over @p k regions; each region takes its first op's kind. */
LeafSchedule
buildSchedule(const Module &mod, unsigned k,
              const std::vector<std::vector<DraftRegion>> &steps)
{
    ScheduleBuilder builder(mod, k);
    for (const auto &step : steps) {
        builder.beginStep();
        for (const DraftRegion &region : step) {
            builder.slot(region.region).kind = mod.op(region.ops[0]).kind;
            builder.slot(region.region).ops = region.ops;
        }
        builder.endStep();
    }
    return builder.finish();
}

} // anonymous namespace

std::string
replaySelfTest()
{
    // Ops 0 (H a) and 1 (CNOT a b) depend on each other through a;
    // ops 2 (H c) and 3 (X d) are free.
    Module mod("replay_self_test");
    const QubitId a = mod.addLocal("a");
    const QubitId b = mod.addLocal("b");
    const QubitId c = mod.addLocal("c");
    const QubitId d = mod.addLocal("d");
    mod.addGate(GateKind::H, {a});
    mod.addGate(GateKind::CNOT, {a, b});
    mod.addGate(GateKind::H, {c});
    mod.addGate(GateKind::X, {d});

    // Valid on k = 2, d = 2: two regions in step 0, then the CNOT.
    const LeafSchedule valid =
        buildSchedule(mod, 2, {{{0, {0, 2}}, {1, {3}}}, {{0, {1}}}});
    const std::string accepted = replayLeafSchedule(mod, valid, 2, 2);
    if (!accepted.empty())
        return "valid schedule rejected: " + accepted;

    // Each corrupted schedule breaks one rule and must be rejected by
    // that rule, named by a fragment of its message.
    struct Corrupt
    {
        const char *rule;
        LeafSchedule sched;
        unsigned k;
        uint64_t d;
        const char *expect;
    };
    const Corrupt cases[] = {
        {"two dependent ops swapped",
         buildSchedule(mod, 2, {{{0, {1}}}, {{0, {0, 2}}, {1, {3}}}}), 2, 2,
         "before an earlier op"},
        {"an op left out",
         buildSchedule(mod, 2, {{{0, {0, 2}}}, {{0, {1}}}}), 2, 2,
         "ops scheduled"},
        {"an op placed twice",
         buildSchedule(mod, 2,
                       {{{0, {0, 2}}, {1, {3}}}, {{0, {1}}}, {{0, {2}}}}),
         2, 2, "placed twice"},
        {"more operands in a region than d", valid, 2, 1, "operands > d"},
        {"more active regions than k", valid, 1, 2, "active regions > k"},
        {"a region index of k or more",
         buildSchedule(mod, 2, {{{1, {0, 2}}}, {{1, {1}}}, {{1, {3}}}}), 1,
         2, "region 1 invalid"},
        {"two gate kinds in one region",
         buildSchedule(mod, 2, {{{0, {0, 3}}}, {{0, {1}}}, {{0, {2}}}}), 2,
         2, "another gate kind"},
        {"a qubit twice in one step",
         buildSchedule(mod, 2, {{{0, {0}}, {1, {1}}}, {{0, {2}}, {1, {3}}}}),
         2, 2, "used twice"},
    };
    for (const Corrupt &corrupt : cases) {
        const std::string error =
            replayLeafSchedule(mod, corrupt.sched, corrupt.k, corrupt.d);
        if (error.empty())
            return std::string("schedule with ") + corrupt.rule +
                   " was accepted";
        if (error.find(corrupt.expect) == std::string::npos)
            return std::string("schedule with ") + corrupt.rule +
                   " was rejected for another reason: " + error;
    }
    return "";
}

} // namespace perfbench
