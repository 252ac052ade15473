/**
 * @file
 * Load-aware object placement for the shard cluster. Consistent
 * hashing places routing keys blindly; under skewed Table 6 workloads
 * hot keys collide on a shard and co-accessed objects land apart, so
 * every crossing pays migrate-or-proxy. This module models the
 * observed call trace as a hypergraph — objects are vertices weighted
 * by bytes x access frequency, calls are hyperedges spanning the
 * objects they touch — and computes a placement of *placement groups*
 * (routing keys, the unit the router can actually place) that
 * minimizes the weighted hyperedge cut under a fixed balance
 * constraint (kPlacementBalanceEpsilon).
 *
 * The algorithm is a small, deterministic, seeded take on the
 * mt-kahypar recipe (community-detection coarsening + boundary
 * refinement), with no external dependencies:
 *
 *   1. contract object vertices into their placement groups (a key's
 *      objects always move together);
 *   2. coarsen by label-propagation community clustering: each pass
 *      visits vertices in a seeded order and adopts the neighboring
 *      community with the highest connectivity score
 *      sum_e w(e)/(|pins(e)|-1), capped so a community stays
 *      placeable under the balance constraint;
 *   3. place communities greedily, heaviest first, onto the part
 *      with the highest hyperedge affinity that still fits;
 *   4. uncoarsen and refine with FM-style passes: move boundary
 *      groups along their best positive-gain (or balance-improving
 *      zero-gain) direction until a pass makes no move, then repair
 *      any residual overweight part with minimum-loss moves.
 *
 * Everything is integer-weighted and visits vertices in orders fully
 * determined by the trace and the fixed kPlacementSeed, so a fixed
 * trace reproduces the same placement bit-for-bit on every platform.
 */

#ifndef FREEPART_SHARD_PLACEMENT_HH
#define FREEPART_SHARD_PLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace freepart::shard::placement {

// ---- Memory bounds of the online trace collector ----

/** Distinct objects tracked; later new objects still add weight to
 *  their group but are not individually recorded. */
constexpr size_t kTraceMaxObjects = 65536;
/** Distinct hyperedges (deduplicated pin sets). When full, a new pin
 *  set evicts the lowest-weight recorded edge. */
constexpr size_t kTraceMaxEdges = 4096;
/** Pins kept per hyperedge (sorted; the tail is dropped). */
constexpr size_t kTraceMaxPinsPerEdge = 16;

// ---- Fixed partitioner schedule ----

/** Seed of the partitioner's vertex visiting order. */
constexpr uint64_t kPlacementSeed = 1;
/** Max part weight = (1 + epsilon) * total / parts (never below the
 *  heaviest single vertex — a group is indivisible). */
constexpr double kPlacementBalanceEpsilon = 0.10;
static_assert(kPlacementBalanceEpsilon >= 0.0,
              "a part cannot be planned below the average load");
/** Label-propagation coarsening passes (stops early on no move). */
constexpr uint32_t kCoarsenPasses = 4;
/** FM refinement passes (stops early on no move). */
constexpr uint32_t kRefinementPasses = 8;

/** One object touched by a recorded call. */
struct ObjectAccess {
    uint64_t objectId = 0;
    /** Placement group (routing key the object was created under). */
    uint64_t group = 0;
    /** Serialized payload size at access time. */
    uint64_t bytes = 0;
};

/** Group-granularity hypergraph (objects contracted into groups). */
struct GroupHypergraph {
    struct Vertex {
        uint64_t group = 0; //!< routing key
        uint64_t weight = 0; //!< calls + KiB-scaled object access mass
    };
    struct Edge {
        std::vector<uint32_t> pins; //!< vertex indices, ascending
        uint64_t weight = 0;        //!< co-access multiplicity
    };
    std::vector<Vertex> vertices;
    std::vector<Edge> edges;
};

/**
 * Online per-call object-access recorder with bounded memory. The
 * router feeds it every routed call (under the Optimized policy);
 * each re-partition epoch consumes the window and resets it.
 */
class TraceCollector
{
  public:
    /** Record one call: the routing key it was submitted under and
     *  the objects its ref inputs resolved to. */
    void recordCall(uint64_t routing_key,
                    const std::vector<ObjectAccess> &inputs);

    bool empty() const { return calls_ == 0; }
    uint64_t calls() const { return calls_; }
    size_t objectCount() const { return vertices_.size(); }
    size_t edgeCount() const { return edges_.size(); }
    /** Distinct edges that had to evict a recorded one. */
    uint64_t edgeEvictions() const { return edgeEvictions_; }

    /** Contract object vertices into their placement groups. */
    GroupHypergraph contractByGroup() const;

    /** Objects of a group seen this window, ascending — the move set
     *  a re-partition epoch migrates when the group changes shard. */
    std::vector<uint64_t> objectsOf(uint64_t group) const;

    /** Start a fresh window (epoch boundary). */
    void reset();

  private:
    struct Vertex {
        uint64_t id = 0;
        uint64_t group = 0;
        uint64_t weight = 0; //!< sum over accesses of 1 + bytes/1KiB
    };
    struct Edge {
        std::vector<uint64_t> pins; //!< sorted distinct groups
        uint64_t weight = 0;
    };

    std::map<uint64_t, size_t> vertexIndex_; //!< object id -> slot
    std::vector<Vertex> vertices_;
    /** Per-group call count (+ overflow weight of untracked objects). */
    std::map<uint64_t, uint64_t> groupWeight_;
    std::map<std::vector<uint64_t>, size_t> edgeIndex_;
    std::vector<Edge> edges_;
    uint64_t calls_ = 0;
    uint64_t edgeEvictions_ = 0;
};

/** A computed placement of groups onto parts. */
struct PartitionResult {
    /** routing key -> part index in [0, parts). */
    std::map<uint64_t, uint32_t> groupPart;
    std::vector<uint64_t> partWeight;
    /** Weighted connectivity cut: sum_e w(e) * (lambda(e) - 1). */
    uint64_t cut = 0;
    uint64_t totalEdgeWeight = 0;
    /** Max part weight over the ideal total/parts average. */
    double imbalance = 1.0;
};

/** Partition a group hypergraph into `parts` balanced parts
 *  minimizing the weighted hyperedge cut. Deterministic for a fixed
 *  hypergraph. */
PartitionResult partitionGroups(const GroupHypergraph &hypergraph,
                                uint32_t parts);

} // namespace freepart::shard::placement

#endif // FREEPART_SHARD_PLACEMENT_HH
