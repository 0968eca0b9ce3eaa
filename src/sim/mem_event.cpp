#include "sim/mem_event.hpp"

namespace lmi {

void
MemEventLog::record(const MemEvent& event)
{
    events_.push_back(event);
}

} // namespace lmi
