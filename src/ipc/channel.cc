#include "ipc/channel.hh"

#include "util/logging.hh"

namespace freepart::ipc {

namespace {

/** Split a segment's backing into two ring regions. */
uint8_t *
regionAt(const osim::Backing &backing, size_t offset)
{
    return backing->data() + offset;
}

/** ByteSink that streams encoder output straight into a ring
 *  reservation — the zero-copy path (no staging vector). */
class RingSink final : public ByteSink
{
  public:
    RingSink(SpscRing &ring, SpscRing::Reservation &res)
        : ring(ring), res(res)
    {
    }

    void
    append(const void *bytes, size_t len) override
    {
        ring.reservationWrite(res, bytes, len);
    }

  private:
    SpscRing &ring;
    SpscRing::Reservation &res;
};

} // namespace

Channel::Channel(osim::Kernel &kernel, const std::string &name,
                 osim::Pid host_pid, osim::Pid agent_pid,
                 size_t ring_bytes)
    : kernel(kernel), host(host_pid), agent(agent_pid),
      segId(kernel.shmCreate(name, 2 * ring_bytes)),
      reqRing(SpscRing::create(regionAt(kernel.shmBacking(segId), 0),
                               ring_bytes)),
      respRing(SpscRing::create(
          regionAt(kernel.shmBacking(segId), ring_bytes), ring_bytes))
{
    // Map the segment into both processes so the isolation picture is
    // faithful: the rings are the only memory the two sides share.
    kernel.trustedShmMap(host_pid, segId, osim::PermRW);
    kernel.trustedShmMap(agent_pid, segId, osim::PermRW);
}

void
Channel::remapInto(osim::Pid pid)
{
    kernel.trustedShmMap(pid, segId, osim::PermRW);
}

void
Channel::sendOn(SpscRing &ring, const std::vector<Message> &msgs, bool hot)
{
    if (msgs.empty())
        util::fatal("channel: empty batch send");
    size_t frame = batchWireSize(msgs);
    SpscRing::Reservation res;
    if (!ring.tryReserve(frame, res)) {
        // A full ring would block the real producer on a futex until
        // the consumer drains; the synchronous simulation never leaves
        // frames queued, so this indicates a single oversized batch.
        util::fatal("channel: batch frame of %zu bytes exceeds ring "
                    "capacity %zu",
                    frame, ring.capacity());
    }
    RingSink sink(ring, res);
    encodeBatchTo(sink, msgs);
    ring.commit(res);
    // One wake (if the peer is parked) plus per-message ring work.
    kernel.advance(kernel.costs().ipcSendCost(msgs.size(), hot));
}

bool
Channel::receiveOn(SpscRing &ring, osim::Pid receiver,
                   std::vector<Message> &out)
{
    SpscRing::Front front;
    if (!ring.tryFront(front))
        return false;
    osim::FaultAction fault =
        kernel.queryFault(osim::FaultPoint::RingTransfer, receiver);
    if (fault == osim::FaultAction::Transient ||
        fault == osim::FaultAction::Crash) {
        // The frame never reaches the receiver (a lost wakeup / torn
        // write in the real futex-synchronized ring).
        ring.release(front);
        return false;
    }
    // The agent decodes a request where it lies: only the host writes
    // that ring. The host copies every response out before checking
    // it, because the agent could rewrite bytes between the checksum
    // and the decode; a wrapped or corrupted frame is copied as well.
    bool in_place = &ring == &reqRing && front.bytes &&
                    fault != osim::FaultAction::Corrupt;
    std::vector<uint8_t> wire;
    if (!in_place) {
        ring.copyFront(front, wire);
        ring.release(front);
        if (fault == osim::FaultAction::Corrupt)
            kernel.faultInjector()->corrupt(wire);
    }
    bool ok = true;
    try {
        out = in_place ? decodeBatch(front.bytes, front.length)
                       : decodeBatch(wire);
    } catch (const std::exception &) {
        // The shared trailer rejects the whole burst: batching widens
        // the blast radius of one corrupt byte to the frame, and the
        // at-least-once layer re-issues the whole call.
        ok = false;
    }
    if (in_place)
        ring.release(front);
    return ok;
}

void
Channel::sendRequestBatch(const std::vector<Message> &msgs, bool hot)
{
    sendOn(reqRing, msgs, hot);
}

bool
Channel::receiveRequestBatch(std::vector<Message> &out)
{
    return receiveOn(reqRing, agent, out);
}

void
Channel::sendResponseBatch(const std::vector<Message> &msgs, bool hot)
{
    sendOn(respRing, msgs, hot);
}

bool
Channel::receiveResponseBatch(std::vector<Message> &out)
{
    return receiveOn(respRing, host, out);
}

} // namespace freepart::ipc
