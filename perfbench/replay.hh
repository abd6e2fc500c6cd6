/**
 * @file
 * Independent replay of one leaf schedule against its module.
 *
 * The schedulers and the program's own checkers share DepDag::build, so
 * a fault there would hide from all of them. This replay derives each
 * op's dependencies itself, from the per-qubit program order, and reads
 * the schedule only through ScheduleWalker / TimestepView.
 */

#ifndef MSQ_PERFBENCH_REPLAY_HH
#define MSQ_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "arch/schedule.hh"
#include "ir/module.hh"

namespace perfbench {

/**
 * Replay @p sched against @p mod on a machine of @p k regions that each
 * hold at most @p d operand qubits per step. Checks that every op
 * appears exactly once, after every earlier op on any of its qubits;
 * at most k active regions per step; one gate kind per region; at most
 * d operand qubits per region; and no qubit twice in one step.
 *
 * @return "" when the schedule is valid, else the first violation.
 */
std::string replayLeafSchedule(const msq::Module &mod,
                               const msq::LeafSchedule &sched, unsigned k,
                               uint64_t d);

/**
 * Self-test of the replay: a valid four-op schedule is accepted, and one
 * corrupted copy per rule (two dependent ops swapped, an op left out or
 * placed twice, too many operands for d, too many regions for k, a region
 * index of k or more, two gate kinds in a region, a qubit twice in a
 * step) is rejected by that rule.
 * @return "" when the replay behaves, else what went wrong.
 */
std::string replaySelfTest();

} // namespace perfbench

#endif // MSQ_PERFBENCH_REPLAY_HH
