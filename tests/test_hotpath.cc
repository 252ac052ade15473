/**
 * @file
 * Hot-path regression tests for the batched zero-copy RPC transport
 * and checkpoint sharing of unchanged objects: ring wraparound under
 * the reserve/commit producer, codec edge cases (empty payloads,
 * slot-exact records, batch-of-one wire size, corrupted batch
 * trailers), the word-wide integrity checksum (split
 * invariance, bit-flip and injected-corruption detection) next to the
 * pinned FNV-1a digest, shared-checkpoint byte savings and
 * restore fidelity, and the bounded LRU dedup cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/dedup_cache.hh"
#include "core/runtime.hh"
#include "fw/image_format.hh"
#include "ipc/channel.hh"
#include "ipc/codec.hh"
#include "ipc/spsc_ring.hh"
#include "osim/fault_injection.hh"
#include "util/checksum.hh"
#include "util/rng.hh"

namespace freepart {
namespace {

// ---- Ring wraparound under the reserve/commit producer --------------

std::vector<uint8_t>
patternRecord(size_t len, uint8_t seed)
{
    std::vector<uint8_t> rec(len);
    for (size_t i = 0; i < len; ++i)
        rec[i] = static_cast<uint8_t>(seed + i * 7);
    return rec;
}

TEST(RingWraparound, ReserveCommitStreamsAcrossWrapBoundary)
{
    std::vector<uint8_t> region(ipc::SpscRing::kHeaderBytes + 128);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());

    std::vector<uint8_t> out;
    for (int round = 0; round < 300; ++round) {
        size_t len = 1 + (round * 13) % 90;
        std::vector<uint8_t> payload =
            patternRecord(len, static_cast<uint8_t>(round));
        ipc::SpscRing::Reservation res;
        while (!ring.tryReserve(len, res))
            ASSERT_TRUE(ring.tryPop(out));
        // Stream in two unequal chunks so the reservation itself can
        // straddle the wrap.
        size_t first = len / 3;
        ring.reservationWrite(res, payload.data(), first);
        ring.reservationWrite(res, payload.data() + first,
                              len - first);
        // Consumer must not see the record before commit.
        size_t pending_before = ring.size();
        ring.commit(res);
        EXPECT_GT(ring.size(), pending_before);
    }
    while (ring.tryPop(out)) {
        ASSERT_FALSE(out.empty());
        // Every byte follows the generator pattern of its seed byte.
        uint8_t seed = out[0];
        EXPECT_EQ(out, patternRecord(out.size(), seed));
    }
}

// ---- Codec edge cases ------------------------------------------------

ipc::Message
makeRequest(uint64_t seq, ipc::ValueList values)
{
    ipc::Message msg;
    msg.kind = ipc::MsgKind::Request;
    msg.seq = seq;
    msg.apiId = 3;
    msg.values = std::move(values);
    return msg;
}

TEST(CodecEdge, ZeroLengthPayloadsRoundTripInABatch)
{
    ipc::ValueList values;
    values.emplace_back(std::vector<uint8_t>{}); // empty blob
    values.emplace_back(std::string{});          // empty string
    values.emplace_back();                       // None
    std::vector<ipc::Message> batch = {
        makeRequest(1, std::move(values)),
        makeRequest(2, {}), // no values at all
    };
    std::vector<ipc::Message> back =
        ipc::decodeBatch(ipc::encodeBatch(batch));
    ASSERT_EQ(back.size(), 2u);
    ASSERT_EQ(back[0].values.size(), 3u);
    EXPECT_TRUE(back[0].values[0].asBlob().empty());
    EXPECT_TRUE(back[0].values[1].asStr().empty());
    EXPECT_TRUE(back[0].values[2].isNone());
    EXPECT_TRUE(back[1].values.empty());
    EXPECT_EQ(back[1].seq, 2u);
}

TEST(CodecEdge, MaxSizeRecordExactlyFillsRingSlot)
{
    // Size the ring so one batch frame consumes the data area to the
    // last byte; the push must succeed, and any further record (even
    // an empty one needs its length prefix) must be rejected.
    std::vector<ipc::Message> batch = {makeRequest(
        7, {ipc::Value(std::vector<uint8_t>(1000, 0x5a))})};
    std::vector<uint8_t> wire = ipc::encodeBatch(batch);
    ASSERT_EQ(wire.size(), ipc::batchWireSize(batch));

    size_t cap = ipc::SpscRing::kRecordPrefix + wire.size();
    std::vector<uint8_t> region(ipc::SpscRing::kHeaderBytes + cap);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());
    ASSERT_EQ(ring.capacity(), cap);
    ipc::SpscRing::Reservation res;
    ASSERT_TRUE(ring.tryReserve(wire.size(), res));
    ring.reservationWrite(res, wire.data(), wire.size());
    ring.commit(res);
    EXPECT_EQ(ring.size(), cap);
    EXPECT_FALSE(ring.tryReserve(0, res)); // prefix no longer fits

    std::vector<uint8_t> out;
    ASSERT_TRUE(ring.tryPop(out));
    std::vector<ipc::Message> back = ipc::decodeBatch(out);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].values[0].asBlob().size(), 1000u);

    // One byte more than slot-exact never fits an empty ring.
    std::vector<ipc::Message> over = {makeRequest(
        8, {ipc::Value(std::vector<uint8_t>(1001, 0x5a))})};
    EXPECT_FALSE(ring.tryReserve(ipc::batchWireSize(over), res));
}

TEST(CodecEdge, BatchOfOneWireSizeIsBodyPlusFraming)
{
    ipc::Message msg = makeRequest(
        42, {ipc::Value(uint64_t{9}), ipc::Value(std::string("x")),
             ipc::Value(ipc::ObjectRef{2, 77})});
    // A batch of one is the body plus the count word, its length
    // prefix and the shared trailer.
    EXPECT_EQ(ipc::batchWireSize({msg}),
              sizeof(uint32_t) + sizeof(uint32_t) +
                  ipc::messageBodySize(msg) + sizeof(uint64_t));
    EXPECT_EQ(ipc::encodeBatch({msg}).size(), ipc::batchWireSize({msg}));
}

TEST(CodecEdge, CorruptedBatchTrailerRejectsTheWholeFrame)
{
    std::vector<ipc::Message> batch = {
        makeRequest(1, {ipc::Value(uint64_t{1})}),
        makeRequest(2, {ipc::Value(uint64_t{2})}),
    };
    std::vector<uint8_t> wire = ipc::encodeBatch(batch);
    // Flip one bit in the shared trailer.
    std::vector<uint8_t> bad = wire;
    bad.back() ^= 0x01;
    EXPECT_THROW(ipc::decodeBatch(bad), std::exception);
    // Flip one bit in the FIRST message's body: the second, intact
    // message is still rejected — the frame is one checksum unit.
    bad = wire;
    bad[sizeof(uint32_t) + sizeof(uint32_t)] ^= 0x80;
    EXPECT_THROW(ipc::decodeBatch(bad), std::exception);
    EXPECT_NO_THROW(ipc::decodeBatch(wire));
}

TEST(CodecEdge, CorruptFaultSurfacesAsTypedChannelLoss)
{
    osim::Kernel kernel;
    osim::FaultInjector injector(11);
    kernel.setFaultInjector(&injector);
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    ipc::Channel channel(kernel, "ch:corrupt", host.pid(),
                         agent.pid());

    ipc::Message request = makeRequest(1, {ipc::Value(uint64_t{5})});
    channel.sendRequestBatch({request}, false);

    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::RingTransfer;
    spec.action = osim::FaultAction::Corrupt;
    spec.pid = agent.pid();
    injector.schedule(spec);

    // The corrupted frame is not delivered as garbage — the shared
    // trailer rejects it and the receive reports "nothing arrived".
    // The injector fired a corruption, not a drop.
    std::vector<ipc::Message> received;
    EXPECT_FALSE(channel.receiveRequestBatch(received));
    ASSERT_EQ(injector.log().size(), 1u);
    EXPECT_EQ(injector.log()[0].action, osim::FaultAction::Corrupt);

    // A clean retry of the same frame goes through.
    channel.sendRequestBatch({request}, false);
    ASSERT_TRUE(channel.receiveRequestBatch(received));
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].seq, 1u);
}

// ---- Integrity checksum ----------------------------------------------

std::vector<uint8_t>
randomBytes(size_t len, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> out(len);
    for (uint8_t &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

uint64_t
checksumOf(const char *text)
{
    return util::wideChecksum(reinterpret_cast<const uint8_t *>(text),
                              std::strlen(text));
}

TEST(WideChecksum, MatchesXxh64ReferenceVectors)
{
    EXPECT_EQ(checksumOf(""), 0xef46db3751d8e999ull);
    EXPECT_EQ(checksumOf("a"), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(checksumOf("abc"), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(checksumOf("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ull);
}

TEST(WideChecksum, RandomSplitsMatchOneCall)
{
    util::Rng rng(7);
    for (size_t len : {0, 1, 7, 31, 32, 33, 63, 64, 65, 200, 4099}) {
        std::vector<uint8_t> bytes = randomBytes(len, len);
        uint64_t whole = util::wideChecksum(bytes);
        for (int trial = 0; trial < 20; ++trial) {
            util::WideChecksum sum;
            size_t pos = 0;
            while (pos < len) {
                size_t piece = std::min<size_t>(rng.below(40), len - pos);
                sum.update(bytes.data() + pos, piece);
                pos += piece;
            }
            EXPECT_EQ(sum.digest(), whole) << "len " << len;
        }
    }
}

TEST(WideChecksum, DetectsEverySingleBitFlipIn4KiB)
{
    std::vector<uint8_t> bytes = randomBytes(4096, 0x4b);
    uint64_t clean = util::wideChecksum(bytes);
    size_t missed = 0;
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        missed += util::wideChecksum(bytes) == clean;
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(missed, 0u);
}

TEST(WideChecksum, DetectsInjectedCorruptionOfFramesAndCheckpoints)
{
    // A frame-sized batch (what the ring carries) and a 64 KiB
    // checkpoint entry, each corrupted by 1000 seeded injectors. The
    // frame check is decodeBatch's: the body against the (possibly
    // also corrupted) trailer.
    std::vector<uint8_t> frame = ipc::encodeBatch(
        {makeRequest(1, {ipc::Value(randomBytes(64, 1))}),
         makeRequest(2, {ipc::Value(uint64_t{9})})});
    size_t body = frame.size() - sizeof(uint64_t);
    std::vector<uint8_t> entry = randomBytes(64 * 1024, 2);
    uint64_t entry_sum = util::wideChecksum(entry);
    for (uint64_t seed = 0; seed < 1000; ++seed) {
        osim::FaultInjector injector(seed);
        std::vector<uint8_t> bad = frame;
        injector.corrupt(bad);
        uint64_t trailer;
        std::memcpy(&trailer, bad.data() + body, sizeof(trailer));
        EXPECT_NE(util::wideChecksum(bad.data(), body), trailer) << seed;
        bad = entry;
        injector.corrupt(bad);
        EXPECT_NE(util::wideChecksum(bad), entry_sum) << seed;
    }
}

TEST(Fnv1a64, KnownAnswersPinPlacementKeysAndDigests)
{
    // HashRing keys and app final digests are FNV-1a values; they
    // must not move when the integrity checksum changes.
    auto fnv = [](const char *text) {
        return util::fnv1a64(reinterpret_cast<const uint8_t *>(text),
                             std::strlen(text));
    };
    EXPECT_EQ(fnv(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ull);
}

// ---- Checkpoint sharing ----------------------------------------------

struct HotPathEnv {
    HotPathEnv() : registry(fw::buildFullRegistry())
    {
        analysis::HybridCategorizer categorizer(registry);
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<core::FreePartRuntime>
    makeRuntime(core::RuntimeConfig config = {})
    {
        kernel = std::make_unique<osim::Kernel>();
        fw::seedFixtureFiles(*kernel);
        return std::make_unique<core::FreePartRuntime>(
            *kernel, registry, cats,
            core::PartitionPlan::freePartDefault(), config);
    }

    fw::ApiRegistry registry;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
};

HotPathEnv &
env()
{
    static HotPathEnv instance;
    return instance;
}

/** Load a model and train it `rounds` times, checkpointing the
 *  training agent after every round, so most generations see one
 *  changed object among the accumulated unchanged ones. Returns the
 *  weights ref. */
ipc::ObjectRef
trainRounds(core::FreePartRuntime &runtime, int rounds)
{
    core::ApiResult model = runtime.invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    EXPECT_TRUE(model.ok) << model.error;
    ipc::ObjectRef weights = model.values[0].asRef();
    core::ApiResult data = runtime.invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    for (int i = 0; i < rounds; ++i) {
        core::ApiResult trained = runtime.invoke(
            "tf.estimator.DNNClassifier.train",
            {ipc::Value(weights), data.values[0]});
        EXPECT_TRUE(trained.ok) << trained.error;
        runtime.checkpointAgent(runtime.homeOf(weights.objectId));
    }
    return weights;
}

TEST(CheckpointSharing, CheckpointsCopyOnlyChangedObjects)
{
    auto runtime = env().makeRuntime();
    ipc::ObjectRef weights = trainRounds(*runtime, 8);
    uint32_t p = runtime->homeOf(weights.objectId);
    fw::ObjectStore &store = runtime->storeOf(p);
    ASSERT_GT(store.count(), 1u);
    size_t weights_bytes = store.serialize(weights.objectId).size();
    size_t store_bytes = 0;
    for (uint64_t id : store.ids())
        store_bytes += store.serialize(id).size();

    // Nothing changed since the last round's checkpoint: the next
    // generation shares every copy and serializes nothing.
    uint64_t saved = runtime->stats().checkpointBytesSaved;
    uint64_t taken = runtime->stats().checkpointsTaken;
    runtime->checkpointAgent(p);
    EXPECT_EQ(runtime->stats().checkpointsTaken, taken + 1);
    EXPECT_EQ(runtime->stats().checkpointBytesSaved, saved);

    // Overwriting the weights in place changes them alone: they are
    // copied again, the unchanged objects beside them are not.
    osim::AddressSpace &space =
        env().kernel->process(runtime->agentPid(p)).space();
    const fw::StoredObject &obj = store.get(weights.objectId);
    std::vector<uint8_t> data(obj.byteLen, 0x5a);
    space.write(obj.addr, data.data(), data.size());
    runtime->checkpointAgent(p);
    uint64_t round = runtime->stats().checkpointBytesSaved - saved;
    EXPECT_EQ(round, weights_bytes);
    EXPECT_LT(round, store_bytes);
}

TEST(CheckpointSharing, SharedRestoreMatchesPreCrashState)
{
    auto runtime = env().makeRuntime();
    // 5 training rounds: the last generation before the crash shares
    // the unchanged objects' copies with the ones before it.
    ipc::ObjectRef weights = trainRounds(*runtime, 5);

    uint32_t p = runtime->homeOf(weights.objectId);
    runtime->fetchToHost(weights);
    std::vector<uint8_t> before =
        runtime->hostStore().serialize(weights.objectId);

    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    ASSERT_TRUE(runtime->restartAgent(p));
    ASSERT_TRUE(runtime->storeOf(p).has(weights.objectId));
    EXPECT_EQ(runtime->storeOf(p).serialize(weights.objectId),
              before);
    EXPECT_GT(runtime->stats().checkpointBytesRestored, 0u);
}

// ---- Bounded LRU dedup cache -----------------------------------------

TEST(DedupLru, EvictsLeastRecentlyUsedAndTouchOnFindProtects)
{
    core::DedupCache cache(2);
    cache.insert(1, {ipc::Value(uint64_t{10})});
    cache.insert(2, {ipc::Value(uint64_t{20})});
    // Touch 1 so 2 becomes the LRU entry.
    ASSERT_NE(cache.find(1), nullptr);
    EXPECT_EQ(cache.insert(3, {ipc::Value(uint64_t{30})}), 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find(2), nullptr); // evicted
    ASSERT_NE(cache.find(1), nullptr); // protected by the touch
    EXPECT_EQ((*cache.find(1))[0].asU64(), 10u);
    ASSERT_NE(cache.find(3), nullptr);

    // Refreshing an existing seq evicts nothing.
    EXPECT_EQ(cache.insert(1, {ipc::Value(uint64_t{11})}), 0u);
    EXPECT_EQ((*cache.find(1))[0].asU64(), 11u);

    // Shrinking the cap reports how many fell off the tail.
    EXPECT_EQ(cache.setCapacity(1), 1u);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_NE(cache.find(1), nullptr); // MRU survives
}

TEST(DedupLru, RuntimeCountsEvictionsUnderTightCap)
{
    auto runtime = env().makeRuntime();
    // More distinct calls on one partition than the cache holds.
    for (size_t i = 0; i < core::kDedupCacheEntries + 4; ++i) {
        uint64_t id = runtime->createHostMat(
            4, 4, 1, static_cast<uint64_t>(i), "m");
        core::ApiResult res = runtime->invoke(
            "cv2.GaussianBlur",
            {ipc::Value(ipc::ObjectRef{core::kHostPartition, id})});
        ASSERT_TRUE(res.ok) << res.error;
    }
    EXPECT_GT(runtime->stats().dedupEvictions, 0u);
    EXPECT_EQ(runtime->seqCacheSize(1), core::kDedupCacheEntries);
}

} // namespace
} // namespace freepart
