/**
 * @file
 * Heap allocation counters for the traced run. alloc_count.cc replaces
 * the global operator new with a counting one and is linked into the
 * traced binary only; alloc_none.cc reports zero everywhere else.
 */

#ifndef MSQ_PERFBENCH_ALLOC_COUNT_HH
#define MSQ_PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

/** Whether this binary counts allocations and makes the traced run. */
bool traced();

/** Calls of the global operator new so far. */
uint64_t allocCount();

/** Bytes requested through the global operator new so far. */
uint64_t allocBytes();

} // namespace perfbench

#endif // MSQ_PERFBENCH_ALLOC_COUNT_HH
