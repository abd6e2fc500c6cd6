/**
 * @file
 * Tests for the static makespan lower bounds (analysis/bounds.hh) and
 * the B001-B006 schedule-quality checker (verify/bound_checker.hh).
 *
 * Each bound family has a tightness witness: a hand-built DAG whose
 * optimal schedule *equals* the bound, proving the bound is exact there
 * (not merely sound). Corruption tests prove a too-short schedule trips
 * the documented B-code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/bounds.hh"
#include "analysis/invocation_counts.hh"
#include "core/toolflow.hh"
#include "ir/dag.hh"
#include "sched/coarse.hh"
#include "sched/leaf_cache.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "support/diagnostic.hh"
#include "support/rng.hh"
#include "support/saturate.hh"
#include "verify/bound_checker.hh"
#include "workloads/workloads.hh"

namespace {

using namespace msq;

/** Hand-build a schedule placing each (op, region, step) explicitly. */
class TestScheduleBuilder
{
  public:
    TestScheduleBuilder(const Module &mod, unsigned k)
        : mod(&mod), builder(mod, k)
    {}

    TestScheduleBuilder &
    step(std::vector<std::pair<unsigned, uint32_t>> placements)
    {
        builder.beginStep();
        for (auto [region, op] : placements) {
            auto &slot = builder.slot(region);
            slot.kind = mod->op(op).kind;
            slot.ops.push_back(op);
        }
        builder.endStep();
        return *this;
    }

    LeafSchedule take() { return builder.finish(); }

  private:
    const Module *mod;
    ScheduleBuilder builder;
};

bool
hasCode(const DiagnosticEngine &diags, DiagCode code)
{
    for (const Diagnostic &d : diags.diagnostics())
        if (d.code == code)
            return true;
    return false;
}

/** n serial gates on one qubit (critical path = n). */
Module
serialChain(unsigned n)
{
    Module mod("chain");
    QubitId q = mod.addLocal("q");
    for (unsigned i = 0; i < n; ++i)
        mod.addGate(i % 2 ? GateKind::T : GateKind::H, {q});
    return mod;
}

/** n independent one-qubit gates on n distinct qubits (cp = 1). */
Module
independentGates(unsigned n)
{
    Module mod("indep");
    for (unsigned i = 0; i < n; ++i) {
        QubitId q = mod.addLocal("q" + std::to_string(i));
        mod.addGate(GateKind::X, {q});
    }
    return mod;
}

/**
 * Two parallel 5-chains X,X,Toffoli,X,X; each Toffoli borrows two
 * otherwise idle qubits, pinning 6 operand touches into a one-step
 * ASAP/ALAP window. At k=1, d=3: cp = 5, resource = ceil(14/3) = 5,
 * but the interval bound sees the congested window and proves 6.
 */
Module
toffoliPinch()
{
    Module mod("pinch");
    QubitId a = mod.addLocal("a");
    QubitId p = mod.addLocal("p");
    QubitId q = mod.addLocal("q");
    QubitId b = mod.addLocal("b");
    QubitId r = mod.addLocal("r");
    QubitId s = mod.addLocal("s");
    mod.addGate(GateKind::X, {a});            // op 0
    mod.addGate(GateKind::X, {a});            // op 1
    mod.addGate(GateKind::Toffoli, {a, p, q}); // op 2
    mod.addGate(GateKind::X, {a});            // op 3
    mod.addGate(GateKind::X, {a});            // op 4
    mod.addGate(GateKind::X, {b});            // op 5
    mod.addGate(GateKind::X, {b});            // op 6
    mod.addGate(GateKind::Toffoli, {b, r, s}); // op 7
    mod.addGate(GateKind::X, {b});            // op 8
    mod.addGate(GateKind::X, {b});            // op 9
    return mod;
}

// ---------------------------------------------------------------------
// Leaf bound families, each with an exactness witness.
// ---------------------------------------------------------------------

TEST(LeafBounds, CriticalPathExactOnSerialChain)
{
    Module mod = serialChain(10);
    MakespanBounds bounds = computeLeafBounds(mod, MultiSimdArch(4));
    EXPECT_EQ(bounds.criticalPath, 10u);
    EXPECT_EQ(bounds.composite(), 10u);
    EXPECT_FALSE(bounds.saturated);

    // Both schedulers achieve the bound: the critical path is exact.
    RcpScheduler rcp;
    LpfsScheduler lpfs;
    EXPECT_EQ(rcp.schedule(mod, MultiSimdArch(4)).computeTimesteps(),
              10u);
    EXPECT_EQ(lpfs.schedule(mod, MultiSimdArch(4)).computeTimesteps(),
              10u);
}

TEST(LeafBounds, ResourceExactOnIndependentGates)
{
    Module mod = independentGates(8);

    // k=1, d=1: one operand touch per step; 8 touches need 8 steps.
    MakespanBounds narrow = computeLeafBounds(mod, MultiSimdArch(1, 1));
    EXPECT_EQ(narrow.criticalPath, 1u);
    EXPECT_EQ(narrow.resource, 8u);
    EXPECT_EQ(narrow.composite(), 8u);
    LpfsScheduler lpfs;
    EXPECT_EQ(lpfs.schedule(mod, MultiSimdArch(1, 1)).computeTimesteps(),
              8u);

    // k=2, d=2: capacity 4 per step.
    MakespanBounds wide = computeLeafBounds(mod, MultiSimdArch(2, 2));
    EXPECT_EQ(wide.resource, 2u);
    EXPECT_EQ(lpfs.schedule(mod, MultiSimdArch(2, 2)).computeTimesteps(),
              2u);
}

TEST(LeafBounds, IntervalBeatsCriticalPathAndResource)
{
    Module mod = toffoliPinch();
    MultiSimdArch arch(1, 3);
    MakespanBounds bounds = computeLeafBounds(mod, arch);
    EXPECT_EQ(bounds.criticalPath, 5u);
    EXPECT_EQ(bounds.resource, 5u); // ceil(14 touches / 3)
    EXPECT_EQ(bounds.interval, 6u); // strictly stronger
    EXPECT_EQ(bounds.composite(), 6u);

    // A valid 6-step schedule exists, so 6 is exact: the X pairs share
    // a SIMD slot (2 touches), each Toffoli takes a step alone (3).
    LeafSchedule sched = TestScheduleBuilder(mod, 1)
                             .step({{0, 0}, {0, 5}})
                             .step({{0, 1}, {0, 6}})
                             .step({{0, 2}})
                             .step({{0, 7}})
                             .step({{0, 3}, {0, 8}})
                             .step({{0, 4}, {0, 9}})
                             .take();
    EXPECT_EQ(sched.computeTimesteps(), 6u);
    DiagnosticEngine diags;
    EXPECT_TRUE(checkLeafScheduleBounds(sched, arch, diags));
    EXPECT_EQ(diags.numErrors(), 0u);
}

TEST(LeafBounds, EmptyModuleHasZeroBounds)
{
    Module mod("empty");
    mod.addLocal("q");
    MakespanBounds bounds = computeLeafBounds(mod, MultiSimdArch(4));
    EXPECT_EQ(bounds.composite(), 0u);
}

TEST(LeafBounds, NonIncreasingInWidth)
{
    Module mod = independentGates(16);
    uint64_t previous = std::numeric_limits<uint64_t>::max();
    for (unsigned k = 1; k <= 8; k *= 2) {
        uint64_t bound = computeLeafBounds(mod, MultiSimdArch(k, 2))
                             .composite();
        EXPECT_LE(bound, previous) << "width " << k;
        previous = bound;
    }
}

// ---------------------------------------------------------------------
// Reference equivalence: the one-sweep interval bound against a direct
// per-start rescan of every op.
// ---------------------------------------------------------------------

/** Evenly sample sorted unique @p values down to 64, keeping both ends
 * (the endpoint sampling computeLeafBounds documents). */
std::vector<uint64_t>
referenceSample(const std::vector<uint64_t> &values)
{
    constexpr size_t budget = 64;
    if (values.size() <= budget)
        return values;
    std::vector<uint64_t> out;
    for (size_t i = 0; i < budget; ++i) {
        size_t index = i * (values.size() - 1) / (budget - 1);
        if (out.empty() || out.back() != values[index])
            out.push_back(values[index]);
    }
    return out;
}

/**
 * Straightforward leaf bounds: for every sampled window start, rescan
 * all ops, bucket the ones starting at or after it by covering sampled
 * finish, and check each window's load against its capacity.
 */
MakespanBounds
referenceLeafBounds(const Module &mod, const MultiSimdArch &arch)
{
    MakespanBounds bounds;
    const size_t n = mod.numOps();
    if (n == 0)
        return bounds;
    DepDag dag = DepDag::build(mod);
    const uint64_t cp = dag.criticalPathLength();
    bounds.criticalPath = cp;
    const uint64_t cap = std::max<uint64_t>(
        std::min<uint64_t>(satMul(arch.k, arch.d), mod.numQubits()), 1);
    uint64_t touches = 0;
    for (const auto &op : mod.ops())
        touches = satAdd(touches, op.operands.size());
    bounds.resource = satCeilDiv(touches, cap);

    auto depth = dag.depthFromTop();
    auto height = dag.heightToBottom();
    std::vector<uint64_t> es(n), lf(n);
    for (size_t i = 0; i < n; ++i) {
        es[i] = depth[i] - 1;
        lf[i] = cp - height[i] + 1;
    }
    auto sorted_unique = [](std::vector<uint64_t> v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        return v;
    };
    const auto starts = referenceSample(sorted_unique(es));
    const auto finishes = referenceSample(sorted_unique(lf));

    uint64_t max_excess = 0;
    std::vector<uint64_t> load(finishes.size());
    for (uint64_t a : starts) {
        std::fill(load.begin(), load.end(), 0);
        for (size_t i = 0; i < n; ++i) {
            if (es[i] < a)
                continue;
            size_t bucket = std::lower_bound(finishes.begin(),
                                             finishes.end(), lf[i]) -
                            finishes.begin();
            load[bucket] = satAdd(load[bucket], mod.op(i).operands.size());
        }
        uint64_t running = 0;
        for (size_t j = 0; j < finishes.size(); ++j) {
            running = satAdd(running, load[j]);
            if (finishes[j] <= a)
                continue;
            uint64_t steps = satCeilDiv(running, cap);
            uint64_t span = finishes[j] - a;
            if (steps > span)
                max_excess = std::max(max_excess, steps - span);
        }
    }
    bounds.interval = satAdd(cp, max_excess);
    return bounds;
}

void
expectBoundsMatchReference(const Module &mod, const MultiSimdArch &arch,
                           const std::string &what)
{
    MakespanBounds fast = computeLeafBounds(mod, arch);
    MakespanBounds ref = referenceLeafBounds(mod, arch);
    EXPECT_EQ(fast.criticalPath, ref.criticalPath) << what;
    EXPECT_EQ(fast.resource, ref.resource) << what;
    EXPECT_EQ(fast.interval, ref.interval) << what;
    EXPECT_EQ(fast.saturated, ref.saturated) << what;
}

/** Random leaf with 1-, 2- and 3-qubit gates; few qubits and many ops
 * give deep DAGs with wide, uneven ASAP/ALAP windows. */
Module
randomLeaf(uint64_t seed, unsigned qubits, unsigned ops)
{
    SplitMix64 rng(seed);
    Module mod("random");
    mod.addRegister("q", qubits);
    const GateKind one_q[] = {GateKind::H, GateKind::T, GateKind::X,
                              GateKind::S};
    for (unsigned i = 0; i < ops; ++i) {
        auto a = static_cast<QubitId>(rng.nextBelow(qubits));
        auto b = static_cast<QubitId>((a + 1 + rng.nextBelow(qubits - 1)) %
                                      qubits);
        auto c = static_cast<QubitId>(rng.nextBelow(qubits));
        uint64_t pick = rng.nextBelow(100);
        if (pick < 10 && c != a && c != b)
            mod.addGate(GateKind::Toffoli, {a, b, c});
        else if (pick < 35)
            mod.addGate(GateKind::CNOT, {a, b});
        else
            mod.addGate(one_q[rng.nextBelow(4)], {a});
    }
    return mod;
}

TEST(LeafBoundsReference, RandomLeavesMatchPerStartScan)
{
    struct Shape
    {
        unsigned qubits;
        unsigned ops;
    };
    // Small shapes stay under 64 distinct endpoints; the deep ones have
    // hundreds, so endpoint sampling is exercised.
    const Shape shapes[] = {{2, 5}, {4, 40}, {12, 120}, {6, 600},
                            {40, 2000}, {3, 1500}};
    bool sampled = false;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        for (const Shape &shape : shapes) {
            Module mod = randomLeaf(seed, shape.qubits, shape.ops);
            DepDag dag = DepDag::build(mod);
            sampled = sampled || dag.criticalPathLength() > 64;
            for (unsigned k : {1u, 2u, 4u}) {
                for (uint64_t d : {uint64_t{1}, uint64_t{2}, unbounded}) {
                    expectBoundsMatchReference(
                        mod, MultiSimdArch(k, d),
                        "seed " + std::to_string(seed) + " qubits " +
                            std::to_string(shape.qubits) + " ops " +
                            std::to_string(shape.ops) + " k " +
                            std::to_string(k) + " d " + std::to_string(d));
                }
            }
        }
    }
    EXPECT_TRUE(sampled);
}

TEST(LeafBoundsReference, ScaledWorkloadLeavesMatchPerStartScan)
{
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = spec.build();
        ToolflowConfig config;
        config.scheduler = SchedulerKind::Sequential;
        config.arch = MultiSimdArch(4);
        config.rotations = Toolflow::rotationPresetFor(spec.shortName);
        Toolflow(config).run(prog);
        size_t leaves = 0;
        for (ModuleId id : prog.reachableModules()) {
            const Module &mod = prog.module(id);
            if (!mod.isLeaf())
                continue;
            ++leaves;
            for (unsigned k = 1; k <= 4; ++k)
                expectBoundsMatchReference(mod, MultiSimdArch(k),
                                           spec.shortName + "/" +
                                               mod.name() + " k " +
                                               std::to_string(k));
        }
        EXPECT_GT(leaves, 0u) << spec.shortName;
    }
}

// ---------------------------------------------------------------------
// Hierarchical composition.
// ---------------------------------------------------------------------

/** top calls a 10-gate chain twice serially plus one tail gate. */
Program
serialProgram()
{
    Program prog;
    ModuleId chain = prog.addModule("chain");
    {
        Module &mod = prog.module(chain);
        QubitId q = mod.addParam("q");
        for (int i = 0; i < 10; ++i)
            mod.addGate(i % 2 ? GateKind::T : GateKind::H, {q});
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(chain, {q});
        mod.addCall(chain, {q});
        mod.addGate(GateKind::H, {q});
    }
    prog.setEntry(top);
    return prog;
}

TEST(MakespanBoundAnalysis, SerialCompositionIsExact)
{
    Program prog = serialProgram();
    MakespanBoundAnalysis analysis(prog, MultiSimdArch(4),
                                   CommMode::None);
    // 10 + 10 + 1, all serial on one qubit; no comm costs under None.
    EXPECT_EQ(analysis.programLowerBound(), 21u);

    LpfsScheduler leaf;
    CoarseScheduler coarse(MultiSimdArch(4), leaf, CommMode::None);
    ProgramSchedule psched = coarse.schedule(prog);
    EXPECT_EQ(psched.totalCycles, 21u);

    DiagnosticEngine diags;
    ProgramGapReport report;
    EXPECT_TRUE(checkScheduleBounds(prog, psched, MultiSimdArch(4),
                                    CommMode::None, diags, &report));
    EXPECT_EQ(report.programGap, 1.0); // the composed bound is exact
}

TEST(MakespanBoundAnalysis, RepeatAlgebraMultipliesThroughCallGraph)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        for (int i = 0; i < 10; ++i)
            mod.addGate(GateKind::H, {q});
    }
    ModuleId mid = prog.addModule("mid");
    {
        Module &mod = prog.module(mid);
        QubitId q = mod.addParam("q");
        mod.addCall(leaf, {q}, 3);
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(mid, {q}, 2);
    }
    prog.setEntry(top);

    // Mode None: no call overhead -> 2 * 3 * 10.
    MakespanBoundAnalysis none(prog, MultiSimdArch(2), CommMode::None);
    EXPECT_EQ(none.programLowerBound(), 60u);

    // Mode Global charges 1 cycle per call entry: 2 * (3*(10+1) + 1).
    MakespanBoundAnalysis global(prog, MultiSimdArch(2),
                                 CommMode::Global);
    EXPECT_EQ(global.programLowerBound(), 68u);
}

TEST(MakespanBoundAnalysis, WidthQueryMatchesLeafBound)
{
    Program prog = serialProgram();
    MakespanBoundAnalysis analysis(prog, MultiSimdArch(4),
                                   CommMode::None);
    ModuleId chain = 0;
    ASSERT_TRUE(prog.module(chain).isLeaf());
    for (unsigned w = 1; w <= 4; ++w) {
        MultiSimdArch sub(w);
        EXPECT_EQ(analysis.lowerBoundAt(chain, w),
                  computeLeafBounds(prog.module(chain), sub).composite());
    }
    // Non-leaf width query is non-increasing.
    ModuleId top = prog.entry();
    EXPECT_GE(analysis.lowerBoundAt(top, 1),
              analysis.lowerBoundAt(top, 4));
}

TEST(MakespanBoundAnalysis, KnownLeafBoundsAreUsedWhenGiven)
{
    Program prog = serialProgram();
    const MultiSimdArch arch(4);
    ModuleId chain = 0;
    ASSERT_TRUE(prog.module(chain).isLeaf());

    // A supplied bound replaces the computed one (a deliberately larger
    // value, so its use shows in the composition: 2 * 15 + 1).
    MakespanBounds given;
    given.criticalPath = 15;
    MakespanBoundAnalysis known(prog, arch, CommMode::None, nullptr,
                                [&](ModuleId id) {
                                    return id == chain ? &given : nullptr;
                                });
    EXPECT_EQ(known.lowerBound(chain), 15u);
    EXPECT_EQ(known.programLowerBound(), 31u);

    // nullptr for every module falls back to computing: 10 + 10 + 1.
    MakespanBoundAnalysis none(
        prog, arch, CommMode::None, nullptr,
        [](ModuleId) -> const MakespanBounds * { return nullptr; });
    EXPECT_EQ(none.programLowerBound(), 21u);

    // The coarse schedule's memoized width-k bounds equal the computed.
    LpfsScheduler leaf;
    ProgramSchedule psched =
        CoarseScheduler(arch, leaf, CommMode::None).schedule(prog);
    ASSERT_NE(psched.leafBounds(chain, arch.k), nullptr);
    EXPECT_EQ(psched.leafBounds(chain, arch.k)->composite(),
              computeLeafBounds(prog.module(chain), arch).composite());
    EXPECT_EQ(psched.leafBounds(chain, 2), nullptr);
    EXPECT_EQ(psched.leafBounds(prog.entry(), arch.k), nullptr);
}

// ---------------------------------------------------------------------
// The checker on real and corrupted schedules.
// ---------------------------------------------------------------------

TEST(BoundChecker, CoarseSchedulesPassCleanWithGapReport)
{
    Program prog = serialProgram();
    MultiSimdArch arch(4);
    LpfsScheduler leaf;
    CoarseScheduler coarse(arch, leaf, CommMode::Global);
    ProgramSchedule psched = coarse.schedule(prog);

    DiagnosticEngine diags;
    ProgramGapReport report;
    BoundCheckStats stats;
    EXPECT_TRUE(checkScheduleBounds(prog, psched, arch, CommMode::Global,
                                    diags, &report, &stats));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_GT(stats.dimsChecked, 0u);
    EXPECT_EQ(stats.leavesChecked, 1u);
    ASSERT_EQ(report.leaves.size(), 1u);
    EXPECT_GE(report.leaves[0].gap, 1.0);
    EXPECT_GE(report.programGap, 1.0);
    EXPECT_EQ(report.programMakespan, psched.totalCycles);
}

TEST(BoundChecker, ShortChainScheduleTripsB001)
{
    // 10 serial ops crammed into 5 steps of 2: below the critical path.
    Module mod = serialChain(10);
    TestScheduleBuilder builder(mod, 2);
    for (uint32_t s = 0; s < 5; ++s)
        builder.step({{0, 2 * s}, {1, 2 * s + 1}});
    LeafSchedule sched = builder.take();
    ASSERT_EQ(sched.computeTimesteps(), 5u);

    DiagnosticEngine diags;
    EXPECT_FALSE(checkLeafScheduleBounds(sched, MultiSimdArch(2), diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundBelowCriticalPath));
}

TEST(BoundChecker, OverpackedScheduleTripsB002AndB003)
{
    // 8 independent gates forced into 2 steps of 4 at capacity 1
    // (k=1, d=1): fine for the critical path (cp = 1), impossible for
    // the resource and interval bounds (both 8).
    Module mod = independentGates(8);
    LeafSchedule sched = TestScheduleBuilder(mod, 1)
                             .step({{0, 0}, {0, 1}, {0, 2}, {0, 3}})
                             .step({{0, 4}, {0, 5}, {0, 6}, {0, 7}})
                             .take();
    DiagnosticEngine diags;
    EXPECT_FALSE(
        checkLeafScheduleBounds(sched, MultiSimdArch(1, 1), diags));
    EXPECT_FALSE(hasCode(diags, DiagCode::BoundBelowCriticalPath));
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundBelowResource));
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundBelowInterval));
}

TEST(BoundChecker, CorruptProgramScheduleTripsB004AndB005)
{
    Program prog;
    ModuleId chain = prog.addModule("chain");
    {
        Module &mod = prog.module(chain);
        QubitId q = mod.addLocal("q");
        for (int i = 0; i < 10; ++i)
            mod.addGate(GateKind::H, {q});
    }
    prog.setEntry(chain);

    // Hand-forge a schedule claiming half the certified minimum.
    ProgramSchedule psched;
    psched.modules.resize(1);
    psched.modules[0].analyzed = true;
    psched.modules[0].leaf = true;
    psched.modules[0].dims = {{1, 5}};
    psched.totalCycles = 5;

    DiagnosticEngine diags;
    ProgramGapReport report;
    EXPECT_FALSE(checkScheduleBounds(prog, psched, MultiSimdArch(1),
                                     CommMode::None, diags, &report));
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundDimBelowBound));
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundProgramBelow));
    ASSERT_EQ(report.leaves.size(), 1u);
    EXPECT_LT(report.leaves[0].gap, 1.0); // the tell-tale of corruption
}

// ---------------------------------------------------------------------
// Saturating repeat algebra (B006) and gap arithmetic.
// ---------------------------------------------------------------------

/** Nested repeats whose product overflows u64: 2^40 * 2^40. */
Program
overflowProgram()
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    {
        Module &mod = prog.module(leaf);
        QubitId q = mod.addParam("q");
        mod.addGate(GateKind::H, {q});
    }
    ModuleId mid = prog.addModule("mid");
    {
        Module &mod = prog.module(mid);
        QubitId q = mod.addParam("q");
        Operation call =
            Operation::makeCall(leaf, {q}, uint64_t(1) << 40);
        call.line = 17;
        mod.addRawOperation(std::move(call));
    }
    ModuleId top = prog.addModule("top");
    {
        Module &mod = prog.module(top);
        QubitId q = mod.addLocal("q");
        mod.addCall(mid, {q}, uint64_t(1) << 40);
    }
    prog.setEntry(top);
    return prog;
}

TEST(RepeatOverflow, InvocationCountsSaturateWithDiagnostic)
{
    Program prog = overflowProgram();
    DiagnosticEngine diags;
    InvocationCountAnalysis counts(prog, &diags);
    EXPECT_TRUE(counts.saturated());
    EXPECT_EQ(counts.invocations(0),
              std::numeric_limits<uint64_t>::max());
    ASSERT_TRUE(hasCode(diags, DiagCode::BoundRepeatOverflow));
    // The warning points at the clipping call site, line included.
    bool located = false;
    for (const Diagnostic &d : diags.diagnostics()) {
        if (d.code != DiagCode::BoundRepeatOverflow)
            continue;
        EXPECT_EQ(d.severity, Severity::Warning);
        if (d.where.module == "mid" && d.where.line == 17)
            located = true;
    }
    EXPECT_TRUE(located);
    EXPECT_EQ(diags.numErrors(), 0u); // warning, not error
}

TEST(RepeatOverflow, BoundCompositionSaturatesSoundly)
{
    Program prog = overflowProgram();
    DiagnosticEngine diags;
    MakespanBoundAnalysis analysis(prog, MultiSimdArch(2),
                                   CommMode::Global, &diags);
    EXPECT_TRUE(analysis.saturated());
    EXPECT_TRUE(hasCode(diags, DiagCode::BoundRepeatOverflow));
    // Saturated, but still a sound (huge) lower bound.
    EXPECT_GE(analysis.programLowerBound(), uint64_t(1) << 63);
}

TEST(OptimalityGap, Arithmetic)
{
    EXPECT_EQ(optimalityGap(0, 0), 1.0);
    EXPECT_EQ(optimalityGap(10, 5), 2.0);
    EXPECT_EQ(optimalityGap(5, 5), 1.0);
    EXPECT_TRUE(std::isinf(optimalityGap(5, 0)));
}

TEST(OptimalityGap, LeafScheduleResultMatches)
{
    LeafScheduleResult result;
    result.stats.totalCycles = 12;
    result.bounds.criticalPath = 6;
    result.bounds.resource = 4;
    EXPECT_EQ(result.optimalityGap(), 2.0);
    result.stats.totalCycles = 0;
    result.bounds = MakespanBounds{};
    EXPECT_EQ(result.optimalityGap(), 1.0);
}

TEST(LeafCache, MemoizedResultCarriesBounds)
{
    // The coarse scheduler memoizes bounds with the schedule: a shared
    // cache serving a second identical run must hand back non-trivial
    // bounds without recomputation.
    Program prog = serialProgram();
    MultiSimdArch arch(2);
    LpfsScheduler leaf;
    CoarseScheduler::Options options;
    options.leafCache = std::make_shared<LeafScheduleCache>();
    CoarseScheduler coarse(arch, leaf, CommMode::Global, options);
    coarse.schedule(prog);
    EXPECT_GT(options.leafCache->size(), 0u);
    CoarseScheduler again(arch, leaf, CommMode::Global, options);
    again.schedule(prog);
    EXPECT_GT(options.leafCache->hits(), 0u);
}

} // namespace
