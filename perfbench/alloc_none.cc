#include "alloc_count.hh"

namespace perfbench {

bool traced() { return false; }
uint64_t allocCount() { return 0; }
uint64_t allocBytes() { return 0; }

} // namespace perfbench
