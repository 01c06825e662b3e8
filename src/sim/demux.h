// Flow demultiplexer: routes packets leaving the bottleneck to the right
// receiving host (TCP receivers, probe receivers, byte sinks).
#ifndef BB_SIM_DEMUX_H
#define BB_SIM_DEMUX_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/packet.h"

namespace bb::sim {

class FlowDemux final : public PacketSink {
public:
    // Register a handler for a flow id, replacing any earlier one.  The
    // handler must outlive the demux.
    void bind(FlowId flow, PacketSink& sink) {
        Dir1& d1 = child(child(root_.next[flow >> 24]).next[(flow >> 16) & 0xFFU]);
        child(d1.next[(flow >> 8) & 0xFFU]).sinks[flow & 0xFFU] = &sink;
    }

    // Packets for unknown flows go to the default sink, if set; else they are
    // counted as stray and discarded.
    void set_default(PacketSink& sink) { default_ = &sink; }

    void accept(const Packet& pkt) override {
        if (PacketSink* sink = find(pkt.flow)) {
            sink->accept(pkt);
        } else if (default_ != nullptr) {
            default_->accept(pkt);
        } else {
            ++stray_;
        }
    }

    [[nodiscard]] std::uint64_t stray_packets() const noexcept { return stray_; }
    // Pages and directories allocated below the root, for bounded-memory
    // assertions: a bind allocates at most three, and none once its
    // 256-id page exists.
    [[nodiscard]] std::size_t table_nodes() const noexcept { return nodes_; }

private:
    // Routes live in a radix table over the 32-bit flow id, one byte per
    // level: the root and two directory levels lead to 256-id pages of sink
    // pointers.  A lookup is four indexed loads, no search and no hashing;
    // nodes exist only on the paths to bound ids, so memory grows with the
    // pages actually bound however sparse the ids.  Nothing ever walks the
    // table, so bind() order cannot leak into results (determinism rule
    // no-unordered-container, DESIGN.md §14).
    struct Page {
        std::array<PacketSink*, 256> sinks{};
    };
    template <typename Child>
    struct Dir {
        std::array<std::unique_ptr<Child>, 256> next{};
    };
    using Dir1 = Dir<Page>;
    using Dir2 = Dir<Dir1>;

    template <typename Node>
    Node& child(std::unique_ptr<Node>& p) {
        if (!p) {
            p = std::make_unique<Node>();
            ++nodes_;
        }
        return *p;
    }

    [[nodiscard]] PacketSink* find(FlowId flow) const noexcept {
        const Dir2* d2 = root_.next[flow >> 24].get();
        if (d2 == nullptr) return nullptr;
        const Dir1* d1 = d2->next[(flow >> 16) & 0xFFU].get();
        if (d1 == nullptr) return nullptr;
        const Page* page = d1->next[(flow >> 8) & 0xFFU].get();
        return page == nullptr ? nullptr : page->sinks[flow & 0xFFU];
    }

    Dir<Dir2> root_;
    std::size_t nodes_{0};
    PacketSink* default_{nullptr};
    std::uint64_t stray_{0};
};

}  // namespace bb::sim

#endif  // BB_SIM_DEMUX_H
