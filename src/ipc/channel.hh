/**
 * @file
 * A bidirectional RPC channel between the host process and one agent
 * process, built from two SPSC rings in a simulated shared-memory
 * segment with futex-accounted synchronization (§4.3, footnote 8).
 *
 * The simulation executes synchronously, so a send immediately makes
 * the message poppable on the other side; the futex/context-switch
 * latency is charged to the simulated clock via the kernel cost
 * model.
 *
 * All traffic is batch-framed: a send encodes one or more messages
 * directly into ring storage (reserve/commit, no staging buffer)
 * under a single shared util::WideChecksum trailer, and pays one
 * futex wake for the whole burst — or none at all inside a hot
 * window, when the peer is still busy-polling after the previous
 * exchange (the adaptive-spin fast path). A single message is a
 * batch of one.
 */

#ifndef FREEPART_IPC_CHANNEL_HH
#define FREEPART_IPC_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "ipc/codec.hh"
#include "ipc/spsc_ring.hh"
#include "osim/kernel.hh"

namespace freepart::ipc {

/**
 * Host<->agent channel over a shm segment. The first half of the
 * segment is the request ring (host -> agent), the second half the
 * response ring (agent -> host).
 */
class Channel
{
  public:
    /**
     * Create a channel between two processes.
     *
     * @param kernel     Owning kernel (provides shm + cost model).
     * @param name       Segment name, e.g. "ch:loading".
     * @param host_pid   Host-side process.
     * @param agent_pid  Agent-side process.
     * @param ring_bytes Bytes per direction.
     */
    Channel(osim::Kernel &kernel, const std::string &name,
            osim::Pid host_pid, osim::Pid agent_pid,
            size_t ring_bytes = 1 << 20);

    /**
     * Send a burst of messages host->agent as one batch frame. With
     * hot=true the agent is assumed to be busy-polling (consecutive
     * same-partition calls) and no futex wake is charged.
     */
    void sendRequestBatch(const std::vector<Message> &msgs, bool hot);

    /** Pop the pending request-side batch on the agent side. */
    bool receiveRequestBatch(std::vector<Message> &out);

    /** Send a response burst agent->host. */
    void sendResponseBatch(const std::vector<Message> &msgs, bool hot);

    /** Pop the pending response-side batch on the host side. */
    bool receiveResponseBatch(std::vector<Message> &out);

    /**
     * Re-map the channel's shm segment into a process (used after an
     * agent respawn wipes its address space, §4.4.2).
     */
    void remapInto(osim::Pid pid);

    osim::Pid hostPid() const { return host; }
    osim::Pid agentPid() const { return agent; }

    // ---- Async in-flight tracking (pipeline-parallel mode) -----------
    //
    // Under RuntimeConfig::pipelineParallel the runtime issues calls
    // on this channel without waiting; each issued-but-unreaped call
    // is queued here with its completion time on the agent's virtual
    // timeline. The queue bounds dispatch depth (the runtime stalls
    // when it is full) and is reaped as the host clock passes
    // completion times. Completion times are monotone per channel, so
    // the front entry is always the oldest.

    /** Record an async call completing at `done` (virtual time). */
    void
    noteInFlight(uint64_t ticket, osim::SimTime done)
    {
        inFlight_.emplace_back(ticket, done);
    }

    /** Issued async calls not yet reaped. */
    size_t inFlightDepth() const { return inFlight_.size(); }

    /** Completion time of the oldest in-flight call (0 if none). */
    osim::SimTime
    oldestInFlightDone() const
    {
        return inFlight_.empty() ? 0 : inFlight_.front().second;
    }

    /** Drop entries completed at or before `now`; returns count. */
    size_t
    reapCompleted(osim::SimTime now)
    {
        size_t reaped = 0;
        while (!inFlight_.empty() && inFlight_.front().second <= now) {
            inFlight_.pop_front();
            ++reaped;
        }
        return reaped;
    }

    /** Forget all in-flight entries (full barrier / drain). */
    void clearInFlight() { inFlight_.clear(); }

  private:
    void sendOn(SpscRing &ring, const std::vector<Message> &msgs, bool hot);

    /**
     * Pop + decode one batch frame, applying ring-transfer faults on
     * the receiving side: a Transient fault drops the frame, a
     * Corrupt fault flips bytes of a copy so the shared trailer
     * rejects it. Both surface as "no message" — the at-least-once
     * layer above must retry the whole call. The agent decodes a
     * contiguous request in ring storage; the host never decodes
     * bytes in the agent-writable response ring.
     */
    bool receiveOn(SpscRing &ring, osim::Pid receiver,
                   std::vector<Message> &out);

    osim::Kernel &kernel;
    osim::Pid host;
    osim::Pid agent;
    uint32_t segId;
    SpscRing reqRing;
    SpscRing respRing;
    std::deque<std::pair<uint64_t, osim::SimTime>> inFlight_;
};

} // namespace freepart::ipc

#endif // FREEPART_IPC_CHANNEL_HH
