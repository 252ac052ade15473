/**
 * @file
 * Deterministic fault injection for the simulated kernel. A test or
 * bench schedules FaultSpecs against instrumented fault points (the
 * Nth syscall of a pid, an agent API execution, a device read, a
 * respawn, a ring-buffer transfer, checkpoint save/restore); the
 * kernel and runtime consult the injector at those points and apply
 * the returned action. All randomness comes from an explicitly seeded
 * RNG, so a fault plan replays identically: same seed, same crashes,
 * same recovery trace.
 *
 * This is the machinery behind the availability evaluation (§4.4.2,
 * A.2.4): the paper's agent-restart story is only meaningful if
 * crashes can be provoked at every interesting point, repeatedly, and
 * measured.
 */

#ifndef FREEPART_OSIM_FAULT_INJECTION_HH
#define FREEPART_OSIM_FAULT_INJECTION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "osim/types.hh"
#include "util/rng.hh"

namespace freepart::osim {

/** Instrumented locations where faults can fire. */
enum class FaultPoint : uint8_t {
    SyscallEntry = 0, //!< Kernel::enforce, after the filter check
    AgentCall,        //!< runtime: about to execute an API on an agent
    DeviceRead,       //!< sysRead from a camera/file device
    RingTransfer,     //!< Channel receive (shm ring message path)
    Respawn,          //!< Kernel::respawn (crash-loop generation)
    Checkpoint,       //!< runtime checkpointAgent serialization
    Restore,          //!< runtime restoring a checkpoint after respawn
    ShardAdmission,   //!< cluster: a routed call admitted to a shard
    ClusterTransfer,  //!< cluster: cross-shard object transfer
};

constexpr size_t kNumFaultPoints = 9;

/** Display name of a fault point. */
const char *faultPointName(FaultPoint point);

/** What happens when a fault fires. */
enum class FaultAction : uint8_t {
    None = 0,  //!< nothing fired
    Crash,     //!< kill the process at the point (SIGSEGV-like)
    Transient, //!< fail the operation; the process survives
    Corrupt,   //!< corrupt the data flowing through the point
    Stall,     //!< freeze the target for FaultSpec::stallTime sim ns
    SlowDown,  //!< multiply the operation's cost by FaultSpec::slowFactor
};

/** Display name of a fault action. */
const char *faultActionName(FaultAction action);

/** Matches any pid in a FaultSpec. */
constexpr Pid kAnyPid = 0;

/**
 * One scheduled fault. The spec keeps its own hit counter: it fires
 * on matching hits number `after+1` .. `after+count` (each firing
 * additionally gated by `probability` through the seeded RNG).
 */
struct FaultSpec {
    FaultPoint point = FaultPoint::SyscallEntry;
    FaultAction action = FaultAction::Crash;
    Pid pid = kAnyPid;        //!< limit to one process (kAnyPid = all)
    uint64_t after = 0;       //!< skip the first N matching hits
    uint32_t count = 1;       //!< firings allowed (0 = unlimited)
    double probability = 1.0; //!< per-hit firing probability
    std::string tag;          //!< label recorded in the injection log

    /** Magnitudes for the cluster fault actions. At the cluster
     *  points the Pid field selects a shard slot (shard id + 1, so
     *  kAnyPid keeps meaning "every shard"). */
    SimTime stallTime = 0;    //!< FaultAction::Stall freeze length
    double slowFactor = 1.0;  //!< FaultAction::SlowDown multiplier
};

/** A fired fault plus the magnitudes its spec carried. */
struct FaultFire {
    FaultAction action = FaultAction::None;
    SimTime stallTime = 0;
    double slowFactor = 1.0;
};

/** One fault that actually fired. */
struct FaultRecord {
    FaultPoint point;
    FaultAction action;
    Pid pid;      //!< pid the fault was applied to
    uint64_t hit; //!< global hit index of the point when it fired
    std::string tag;
};

/**
 * The injector: owns the scheduled specs, the per-point hit counters,
 * and the log of fired faults. Attached to a Kernel via
 * setFaultInjector(); a null injector means every query is free of
 * faults (the default, zero-overhead path).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(uint64_t seed = 0x5eedfa17ull) : rng(seed)
    {
        hitCounts.fill(0);
    }

    /** Schedule a fault; returns *this so plans chain fluently. */
    FaultInjector &
    schedule(FaultSpec spec)
    {
        armed.push_back({std::move(spec), 0, 0});
        return *this;
    }

    /**
     * Consult the injector at a fault point. Every call counts as one
     * hit for matching specs; the first spec whose trigger condition
     * is met fires and its action is returned.
     */
    FaultAction query(FaultPoint point, Pid pid);

    /**
     * Like query(), but also returns the firing spec's magnitudes
     * (stall length, slow-down factor) — the cluster fault points
     * need more than the action tag.
     */
    FaultFire queryFire(FaultPoint point, Pid pid);

    /** Total hits observed at a point (fired or not). */
    uint64_t
    hits(FaultPoint point) const
    {
        return hitCounts[static_cast<size_t>(point)];
    }

    /** Number of faults that fired so far. */
    uint64_t injectedCount() const { return log_.size(); }

    /** Every fault that fired, in firing order. */
    const std::vector<FaultRecord> &log() const { return log_; }

    /**
     * Deterministically corrupt a byte buffer in place (flips a few
     * bytes chosen by the seeded RNG, biased toward the header so
     * framed messages fail to decode rather than silently carrying
     * flipped payload bits).
     */
    void corrupt(std::vector<uint8_t> &bytes);

  private:
    struct Armed {
        FaultSpec spec;
        uint64_t hits = 0;  //!< matching hits seen by this spec
        uint64_t fired = 0; //!< times this spec fired
    };

    util::Rng rng;
    std::array<uint64_t, kNumFaultPoints> hitCounts;
    std::vector<Armed> armed;
    std::vector<FaultRecord> log_;
};

} // namespace freepart::osim

#endif // FREEPART_OSIM_FAULT_INJECTION_HH
