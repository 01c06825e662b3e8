// Back-to-back emission of one probe's packets (paper §6.1: successive
// packets leave `gap` apart, per the capabilities of the paper's hosts).
//
// The first packet leaves at once; packet k rides the train's PacketLane
// inline and leaves k × gap later, stamped with that emission time.  Each
// lane push takes the insertion sequence a scheduler event would, so
// dispatch order is that of one heap.  A lane's pushes must come in time
// order, so a train must end before the next probe can start: the
// constructor rejects (packets − 1) × gap >= the spacing between probes.
#ifndef BB_PROBES_PROBE_TRAIN_H
#define BB_PROBES_PROBE_TRAIN_H

#include <cstdint>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/time.h"

namespace bb::probes {

class ProbeTrain {
public:
    // Packets go to `out` with ids first_id + 1, first_id + 2, ...  Throws
    // std::invalid_argument unless (packets − 1) × gap < spacing.
    ProbeTrain(sim::Scheduler& sched, sim::PacketSink& out, std::uint64_t first_id, int packets,
               TimeNs gap, TimeNs spacing);

    // Send one probe now: `pkt` carries the fields common to the train
    // (flow, kind, size, seq, ECN); id, probe_pkt and sent_at are set here.
    void send(sim::Packet pkt);

private:
    sim::Scheduler* sched_;
    sim::PacketSink* out_;
    sim::PacketLane lane_;  // packets 1..packets-1 of the latest trains
    std::uint64_t next_id_;
    int packets_;
    TimeNs gap_;
};

}  // namespace bb::probes

#endif  // BB_PROBES_PROBE_TRAIN_H
