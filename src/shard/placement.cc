#include "shard/placement.hh"

#include <algorithm>

#include "util/rng.hh"

namespace freepart::shard::placement {

// ---- TraceCollector --------------------------------------------------

void
TraceCollector::recordCall(uint64_t routing_key,
                           const std::vector<ObjectAccess> &inputs)
{
    ++calls_;
    // Every call loads its own group's shard even with no ref inputs.
    groupWeight_[routing_key] += 1;

    std::vector<uint64_t> pins;
    pins.push_back(routing_key);
    for (const ObjectAccess &access : inputs) {
        pins.push_back(access.group);
        uint64_t weight = 1 + access.bytes / 1024;
        auto it = vertexIndex_.find(access.objectId);
        if (it != vertexIndex_.end()) {
            vertices_[it->second].weight += weight;
            continue;
        }
        if (vertices_.size() < kTraceMaxObjects) {
            vertexIndex_[access.objectId] = vertices_.size();
            vertices_.push_back({access.objectId, access.group, weight});
        } else {
            // Over the object cap the access mass still lands on the
            // group (placement stays load-aware), only the per-object
            // move set loses the id.
            groupWeight_[access.group] += weight;
        }
    }

    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2)
        return; // single-group call: no cut contribution
    if (pins.size() > kTraceMaxPinsPerEdge)
        pins.resize(kTraceMaxPinsPerEdge);

    auto it = edgeIndex_.find(pins);
    if (it != edgeIndex_.end()) {
        edges_[it->second].weight += 1;
        return;
    }
    if (edges_.size() < kTraceMaxEdges) {
        edgeIndex_[pins] = edges_.size();
        edges_.push_back({pins, 1});
        return;
    }
    // Full: evict the lowest-weight edge (lowest slot on ties) so a
    // shifting workload can still register new co-access patterns.
    size_t victim = 0;
    for (size_t e = 1; e < edges_.size(); ++e)
        if (edges_[e].weight < edges_[victim].weight)
            victim = e;
    edgeIndex_.erase(edges_[victim].pins);
    edgeIndex_[pins] = victim;
    edges_[victim] = {std::move(pins), 1};
    ++edgeEvictions_;
}

GroupHypergraph
TraceCollector::contractByGroup() const
{
    GroupHypergraph out;
    // Group weight = call count (+ overflow) + object access mass.
    std::map<uint64_t, uint64_t> weight = groupWeight_;
    for (const Vertex &vertex : vertices_)
        weight[vertex.group] += vertex.weight;

    std::map<uint64_t, uint32_t> slot;
    out.vertices.reserve(weight.size());
    for (const auto &[group, w] : weight) {
        slot[group] = static_cast<uint32_t>(out.vertices.size());
        out.vertices.push_back({group, w});
    }

    std::map<std::vector<uint32_t>, uint64_t> merged;
    for (const Edge &edge : edges_) {
        std::vector<uint32_t> pins;
        pins.reserve(edge.pins.size());
        for (uint64_t group : edge.pins) {
            auto it = slot.find(group);
            if (it != slot.end())
                pins.push_back(it->second);
        }
        std::sort(pins.begin(), pins.end());
        pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
        if (pins.size() < 2)
            continue;
        merged[pins] += edge.weight;
    }
    out.edges.reserve(merged.size());
    for (const auto &[pins, w] : merged)
        out.edges.push_back({pins, w});
    return out;
}

std::vector<uint64_t>
TraceCollector::objectsOf(uint64_t group) const
{
    std::vector<uint64_t> out;
    for (const Vertex &vertex : vertices_)
        if (vertex.group == group)
            out.push_back(vertex.id);
    std::sort(out.begin(), out.end());
    return out;
}

void
TraceCollector::reset()
{
    vertexIndex_.clear();
    vertices_.clear();
    groupWeight_.clear();
    edgeIndex_.clear();
    edges_.clear();
    calls_ = 0;
    edgeEvictions_ = 0;
}

// ---- Partitioner -----------------------------------------------------

namespace {

/** Integer connectivity score of one shared edge: scaled weight over
 *  fan-out, so tight pairs beat broad co-occurrence. Integer math
 *  keeps tie-breaking identical across platforms. */
uint64_t
edgeScore(const GroupHypergraph::Edge &edge)
{
    return edge.weight * 1024 / (edge.pins.size() - 1);
}

} // namespace

PartitionResult
partitionGroups(const GroupHypergraph &hypergraph, uint32_t parts)
{
    const size_t n = hypergraph.vertices.size();
    const uint32_t k = std::max<uint32_t>(parts, 1);
    PartitionResult out;
    out.partWeight.assign(k, 0);
    if (n == 0)
        return out;

    std::vector<uint64_t> weight(n);
    uint64_t total = 0, heaviest = 0;
    for (size_t v = 0; v < n; ++v) {
        weight[v] = std::max<uint64_t>(hypergraph.vertices[v].weight, 1);
        total += weight[v];
        heaviest = std::max(heaviest, weight[v]);
    }
    const uint64_t ideal = (total + k - 1) / k;
    const uint64_t maxPart = std::max<uint64_t>(
        heaviest,
        static_cast<uint64_t>(
            (1.0 + kPlacementBalanceEpsilon) *
            static_cast<double>(total) / static_cast<double>(k)) +
            1);

    std::vector<std::vector<uint32_t>> incident(n);
    for (size_t e = 0; e < hypergraph.edges.size(); ++e) {
        for (uint32_t pin : hypergraph.edges[e].pins)
            incident[pin].push_back(static_cast<uint32_t>(e));
        out.totalEdgeWeight += hypergraph.edges[e].weight;
    }

    // ---- 1. Community coarsening (label propagation) ----------------
    // A community may not outgrow half a part: placement needs room
    // to balance, and an indivisible mega-community would pin the
    // heaviest keys together no matter what refinement wants.
    const uint64_t communityCap =
        std::max(heaviest, maxPart / 2 + 1);
    std::vector<uint32_t> label(n);
    std::vector<uint64_t> labelWeight(n);
    for (size_t v = 0; v < n; ++v) {
        label[v] = static_cast<uint32_t>(v);
        labelWeight[v] = weight[v];
    }
    util::Rng rng(kPlacementSeed);
    std::vector<uint32_t> order(n);
    for (size_t v = 0; v < n; ++v)
        order[v] = static_cast<uint32_t>(v);
    for (uint32_t pass = 0; pass < kCoarsenPasses; ++pass) {
        rng.shuffle(order);
        size_t moves = 0;
        for (uint32_t v : order) {
            // Score every neighboring community by summed edge pull.
            std::map<uint32_t, uint64_t> score;
            for (uint32_t e : incident[v]) {
                const GroupHypergraph::Edge &edge = hypergraph.edges[e];
                uint64_t s = edgeScore(edge);
                for (uint32_t pin : edge.pins)
                    if (pin != v)
                        score[label[pin]] += s;
            }
            uint32_t best = label[v];
            uint64_t bestScore = score.count(label[v])
                                     ? score[label[v]]
                                     : 0;
            for (const auto &[candidate, s] : score) {
                if (candidate == label[v])
                    continue;
                if (labelWeight[candidate] + weight[v] > communityCap)
                    continue;
                if (s > bestScore) {
                    best = candidate;
                    bestScore = s;
                }
            }
            if (best != label[v]) {
                labelWeight[label[v]] -= weight[v];
                labelWeight[best] += weight[v];
                label[v] = best;
                ++moves;
            }
        }
        if (moves == 0)
            break;
    }

    // Compact community ids.
    std::map<uint32_t, uint32_t> compact;
    for (size_t v = 0; v < n; ++v)
        if (!compact.count(label[v])) {
            uint32_t id = static_cast<uint32_t>(compact.size());
            compact[label[v]] = id;
        }
    const size_t communities = compact.size();
    std::vector<uint32_t> community(n);
    std::vector<uint64_t> communityWeight(communities, 0);
    for (size_t v = 0; v < n; ++v) {
        community[v] = compact[label[v]];
        communityWeight[community[v]] += weight[v];
    }
    std::map<std::vector<uint32_t>, uint64_t> coarseEdges;
    for (const GroupHypergraph::Edge &edge : hypergraph.edges) {
        std::vector<uint32_t> pins;
        pins.reserve(edge.pins.size());
        for (uint32_t pin : edge.pins)
            pins.push_back(community[pin]);
        std::sort(pins.begin(), pins.end());
        pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
        if (pins.size() < 2)
            continue;
        coarseEdges[pins] += edge.weight;
    }

    // ---- 2. Greedy initial placement of communities ------------------
    std::vector<std::vector<std::pair<uint64_t, const std::vector<uint32_t> *>>>
        coarseIncident(communities);
    for (const auto &[pins, w] : coarseEdges)
        for (uint32_t pin : pins)
            coarseIncident[pin].emplace_back(w, &pins);

    std::vector<uint32_t> byWeight(communities);
    for (size_t c = 0; c < communities; ++c)
        byWeight[c] = static_cast<uint32_t>(c);
    std::sort(byWeight.begin(), byWeight.end(),
              [&](uint32_t a, uint32_t b) {
                  if (communityWeight[a] != communityWeight[b])
                      return communityWeight[a] > communityWeight[b];
                  return a < b;
              });

    constexpr uint32_t kUnassigned = UINT32_MAX;
    std::vector<uint32_t> communityPart(communities, kUnassigned);
    std::vector<uint64_t> partWeight(k, 0);
    for (uint32_t c : byWeight) {
        std::vector<uint64_t> affinity(k, 0);
        for (const auto &[w, pins] : coarseIncident[c])
            for (uint32_t pin : *pins)
                if (pin != c && communityPart[pin] != kUnassigned)
                    affinity[communityPart[pin]] += w;
        uint32_t best = kUnassigned;
        for (uint32_t p = 0; p < k; ++p) {
            if (partWeight[p] + communityWeight[c] > maxPart)
                continue;
            if (best == kUnassigned || affinity[p] > affinity[best] ||
                (affinity[p] == affinity[best] &&
                 partWeight[p] < partWeight[best]))
                best = p;
        }
        if (best == kUnassigned) {
            // Nothing fits (huge community): take the lightest part.
            best = 0;
            for (uint32_t p = 1; p < k; ++p)
                if (partWeight[p] < partWeight[best])
                    best = p;
        }
        communityPart[c] = best;
        partWeight[best] += communityWeight[c];
    }

    // ---- 3. Uncoarsen + FM-style boundary refinement -----------------
    std::vector<uint32_t> part(n);
    for (size_t v = 0; v < n; ++v)
        part[v] = communityPart[community[v]];

    // Pin counts per (edge, part) drive O(1) gain evaluation.
    std::vector<std::vector<uint32_t>> phi(hypergraph.edges.size(),
                                           std::vector<uint32_t>(k, 0));
    for (size_t e = 0; e < hypergraph.edges.size(); ++e)
        for (uint32_t pin : hypergraph.edges[e].pins)
            ++phi[e][part[pin]];

    auto gainOf = [&](uint32_t v, uint32_t from, uint32_t to) {
        int64_t gain = 0;
        for (uint32_t e : incident[v]) {
            const uint64_t w = hypergraph.edges[e].weight;
            if (phi[e][from] == 1)
                gain += static_cast<int64_t>(w); // `from` leaves the edge
            if (phi[e][to] == 0)
                gain -= static_cast<int64_t>(w); // `to` joins the edge
        }
        return gain;
    };
    auto applyMove = [&](uint32_t v, uint32_t to) {
        uint32_t from = part[v];
        for (uint32_t e : incident[v]) {
            --phi[e][from];
            ++phi[e][to];
        }
        partWeight[from] -= weight[v];
        partWeight[to] += weight[v];
        part[v] = to;
    };

    for (uint32_t pass = 0; pass < kRefinementPasses; ++pass) {
        size_t moves = 0;
        for (uint32_t v = 0; v < n; ++v) {
            uint32_t from = part[v];
            uint32_t best = from;
            int64_t bestGain = 0;
            for (uint32_t to = 0; to < k; ++to) {
                if (to == from ||
                    partWeight[to] + weight[v] > maxPart)
                    continue;
                int64_t gain = gainOf(v, from, to);
                bool better =
                    gain > bestGain ||
                    (gain == bestGain && best != from &&
                     partWeight[to] < partWeight[best]) ||
                    // Zero-gain move that strictly improves balance.
                    (gain == 0 && best == from &&
                     partWeight[from] > partWeight[to] + weight[v]);
                if (better) {
                    best = to;
                    bestGain = gain;
                }
            }
            if (best != from) {
                applyMove(v, best);
                ++moves;
            }
        }
        if (moves == 0)
            break;
    }

    // Balance repair: an overweight part sheds its minimum-loss
    // vertices until it fits (or no move still shrinks the maximum).
    for (size_t guard = 0; guard < 4 * n; ++guard) {
        uint32_t worst = 0;
        for (uint32_t p = 1; p < k; ++p)
            if (partWeight[p] > partWeight[worst])
                worst = p;
        if (partWeight[worst] <= maxPart)
            break;
        uint32_t bestV = UINT32_MAX, bestTo = UINT32_MAX;
        int64_t bestGain = 0;
        for (uint32_t v = 0; v < n; ++v) {
            if (part[v] != worst)
                continue;
            for (uint32_t to = 0; to < k; ++to) {
                if (to == worst ||
                    partWeight[to] + weight[v] >= partWeight[worst])
                    continue; // must strictly shrink the maximum
                int64_t gain = gainOf(v, worst, to);
                if (bestV == UINT32_MAX || gain > bestGain) {
                    bestV = v;
                    bestTo = to;
                    bestGain = gain;
                }
            }
        }
        if (bestV == UINT32_MAX)
            break;
        applyMove(bestV, bestTo);
    }

    // ---- 4. Report ---------------------------------------------------
    for (size_t e = 0; e < hypergraph.edges.size(); ++e) {
        uint32_t lambda = 0;
        for (uint32_t p = 0; p < k; ++p)
            if (phi[e][p] > 0)
                ++lambda;
        out.cut += hypergraph.edges[e].weight * (lambda - 1);
    }
    out.partWeight = partWeight;
    uint64_t maxSeen = 0;
    for (uint32_t p = 0; p < k; ++p)
        maxSeen = std::max(maxSeen, partWeight[p]);
    out.imbalance = ideal > 0 ? static_cast<double>(maxSeen) /
                                    static_cast<double>(ideal)
                              : 1.0;
    for (size_t v = 0; v < n; ++v)
        out.groupPart[hypergraph.vertices[v].group] = part[v];
    return out;
}

} // namespace freepart::shard::placement
