#include "sim/queue_base.h"

#include <atomic>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/det.h"

namespace bb::sim {

namespace {
// bb-det: allow-file(no-mutable-static) — every static below is an obs
// registry cache (telemetry / high-water marks); none reaches results.
// Process-wide tallies across every queue instance; per-queue detail stays in
// the member counters (arrivals_/drops_/departures_).
obs::Counter& arrivals_ctr() {
    static obs::Counter& c = obs::counter("sim.queue.arrivals");
    return c;
}
obs::Counter& enqueues_ctr() {
    static obs::Counter& c = obs::counter("sim.queue.enqueues");
    return c;
}
obs::Counter& drops_ctr() {
    static obs::Counter& c = obs::counter("sim.queue.drops");
    return c;
}
obs::Counter& departures_ctr() {
    static obs::Counter& c = obs::counter("sim.queue.departures");
    return c;
}
obs::Counter& marks_ctr() {
    static obs::Counter& c = obs::counter("sim.queue.marks");
    return c;
}

void refresh_loss_rate() {
    static obs::Gauge& g = obs::gauge("sim.queue.loss_rate");
    const double a = static_cast<double>(arrivals_ctr().value());
    if (a > 0) g.set(static_cast<double>(drops_ctr().value()) / a);
}

// Per-discipline attribution (sim.queue.<disc>.drops / .marks): lets an
// ablation cell be identified from its metrics file alone.
obs::Counter& disc_drops_ctr(QueueDiscipline d) {
    static obs::Counter* ctrs[] = {
        &obs::counter("sim.queue.drop_tail.drops"), &obs::counter("sim.queue.red.drops"),
        &obs::counter("sim.queue.pie.drops"), &obs::counter("sim.queue.codel.drops")};
    return *ctrs[static_cast<std::size_t>(d)];
}
obs::Counter& disc_marks_ctr(QueueDiscipline d) {
    static obs::Counter* ctrs[] = {
        &obs::counter("sim.queue.drop_tail.marks"), &obs::counter("sim.queue.red.marks"),
        &obs::counter("sim.queue.pie.marks"), &obs::counter("sim.queue.codel.marks")};
    return *ctrs[static_cast<std::size_t>(d)];
}

// Process-wide occupancy high-water mark in bytes, across every queue.
void update_occupancy_max(std::int64_t queued_bytes) {
    static std::atomic<std::int64_t> mx{0};
    static obs::Gauge& g = obs::gauge("sim.queue.occupancy_max");
    std::int64_t cur = mx.load(std::memory_order_relaxed);
    while (queued_bytes > cur) {
        if (mx.compare_exchange_weak(cur, queued_bytes, std::memory_order_relaxed)) {
            g.set(static_cast<double>(queued_bytes));
            return;
        }
    }
}
// Verdict codes folded into the determinism hash chain (DESIGN.md §14).
constexpr std::uint64_t kVerdictAccept = 0;
constexpr std::uint64_t kVerdictDrop = 1;
constexpr std::uint64_t kVerdictMark = 2;
constexpr std::uint64_t kVerdictHeadDrop = 3;
}  // namespace

QueueBase::QueueBase(Scheduler& sched, const LinkConfig& cfg, PacketSink& downstream)
    : sched_{&sched},
      tx_lane_{sched, [this] { finish_transmission(); }},
      prop_lane_{sched},
      cfg_{cfg},
      capacity_bytes_{cfg.capacity_bytes},
      downstream_{&downstream} {
    if (cfg_.rate_bps <= 0) throw std::invalid_argument{"QueueBase: rate must be > 0"};
    if (capacity_bytes_ == 0) {
        capacity_bytes_ = cfg_.capacity_time.ns() * cfg_.rate_bps / (8 * 1'000'000'000LL);
    }
    if (capacity_bytes_ <= 0) throw std::invalid_argument{"QueueBase: capacity must be > 0"};
}

void QueueBase::accept(const Packet& pkt) {
    ++arrivals_;
    arrivals_ctr().inc();
    // The policy decides first (and updates its own state, e.g. RED's EWMA);
    // the physical-buffer check is enforced unconditionally afterwards.
    Verdict verdict = admit(pkt);
    // A CE mark can only ride on an ECN-capable packet; for everything else
    // the congestion signal degrades to the drop it replaces.
    if (verdict == Verdict::mark && !pkt.ecn_ect) verdict = Verdict::drop;
    if (verdict == Verdict::drop || buffer_overflows(pkt)) {
        drop_packet(pkt, sched_->now(), /*at_head=*/false);
        return;
    }
    Queued entry{pkt, sched_->now()};
    if (verdict == Verdict::mark) {
        apply_mark(entry.pkt, entry.enqueued_at);  // folds the mark verdict
    } else {
        det::fold(det::Site::verdict, sched_->now().ns(), kVerdictAccept, pkt.id);
    }
    queued_bytes_ += entry.pkt.size_bytes;
    if (queued_bytes_ > max_queued_bytes_) {
        max_queued_bytes_ = queued_bytes_;
        if (obs::enabled()) update_occupancy_max(queued_bytes_);
    }
    enqueues_ctr().inc();
    if ((arrivals_ & 1023U) == 0 && obs::enabled()) refresh_loss_rate();
    const QueueEvent ev{entry.pkt, entry.enqueued_at, entry.enqueued_at, queued_bytes_};
    fifo_.push_back(entry);
    for (auto& h : enqueue_hooks_) h(ev);
    if (!transmitting_) start_transmission();
}

void QueueBase::drop_packet(const Packet& pkt, TimeNs enqueued_at, bool at_head) {
    det::fold(det::Site::verdict, sched_->now().ns(),
              at_head ? kVerdictHeadDrop : kVerdictDrop, pkt.id);
    ++drops_;
    if (at_head) ++head_drops_;
    drops_ctr().inc();
    disc_drops_ctr(cfg_.discipline).inc();
    if (obs::enabled()) refresh_loss_rate();
    const QueueEvent ev{pkt, sched_->now(), enqueued_at, queued_bytes_};
    for (auto& h : drop_hooks_) h(ev);
}

void QueueBase::apply_mark(Packet& pkt, TimeNs enqueued_at) {
    det::fold(det::Site::verdict, sched_->now().ns(), kVerdictMark, pkt.id);
    pkt.ecn_ce = true;
    ++marks_;
    marks_ctr().inc();
    disc_marks_ctr(cfg_.discipline).inc();
    // Occupancy reported excludes the marked packet itself (it is either not
    // yet enqueued, at the tail, or already popped, at the head).
    const QueueEvent ev{pkt, sched_->now(), enqueued_at, queued_bytes_};
    for (auto& h : mark_hooks_) h(ev);
}

void QueueBase::start_transmission() {
    while (!fifo_.empty()) {
        // Head policy: sojourn-time AQMs (CoDel) drop or mark here, possibly
        // discarding several consecutive heads before one is transmitted.
        const TimeNs sojourn = sched_->now() - fifo_.front().enqueued_at;
        Verdict verdict = head_action(fifo_.front().pkt, sojourn);
        in_flight_ = fifo_.front();
        fifo_.pop_front();
        Packet& pkt = in_flight_.pkt;
        queued_bytes_ -= pkt.size_bytes;
        if (verdict == Verdict::mark && !pkt.ecn_ect) verdict = Verdict::drop;
        if (verdict == Verdict::drop) {
            drop_packet(pkt, in_flight_.enqueued_at, /*at_head=*/true);
            continue;
        }
        if (verdict == Verdict::mark) apply_mark(pkt, in_flight_.enqueued_at);
        transmitting_ = true;
        in_flight_bytes_ = pkt.size_bytes;
        tx_lane_.schedule_after(transmission_time(pkt.size_bytes, cfg_.rate_bps));
        return;
    }
    transmitting_ = false;
    in_flight_bytes_ = 0;
}

void QueueBase::finish_transmission() {
    const Packet& pkt = in_flight_.pkt;
    ++departures_;
    departures_ctr().inc();
    departed_bytes_ += pkt.size_bytes;
    in_flight_bytes_ = 0;
    const QueueEvent ev{pkt, sched_->now(), in_flight_.enqueued_at, queued_bytes_};
    for (auto& h : dequeue_hooks_) h(ev);
    // Propagation happens in parallel with the next transmission, which
    // overwrites in_flight_: the lane keeps its own copy.
    prop_lane_.deliver_after(cfg_.prop_delay, pkt, *downstream_);
    start_transmission();
}

}  // namespace bb::sim
