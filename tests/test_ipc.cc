/**
 * @file
 * Unit tests for the IPC layer: the SPSC ring (including wrap-around
 * and a real two-thread stress run), the value codec over batch-of-one
 * frames (and its rejection of unknown message kinds), and the
 * host<->agent channel over simulated shared memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "ipc/channel.hh"
#include "ipc/codec.hh"
#include "ipc/spsc_ring.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace freepart::ipc {
namespace {

/** Enqueue one record through the ring's reserve/write/commit path. */
bool
push(SpscRing &ring, const std::vector<uint8_t> &record)
{
    SpscRing::Reservation res;
    if (!ring.tryReserve(record.size(), res))
        return false;
    ring.reservationWrite(res, record.data(), record.size());
    ring.commit(res);
    return true;
}

/** Encode and decode one message as a batch of one. */
Message
roundTrip(const Message &msg)
{
    std::vector<Message> back = decodeBatch(encodeBatch({msg}));
    EXPECT_EQ(back.size(), 1u);
    return back.at(0);
}

TEST(SpscRing, PushPopRoundTrip)
{
    std::vector<uint8_t> region(4096);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> msg = {1, 2, 3, 4, 5};
    EXPECT_TRUE(push(ring, msg));
    EXPECT_EQ(ring.size(), SpscRing::kRecordPrefix + 5);
    std::vector<uint8_t> out;
    EXPECT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, msg);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, ZeroLengthRecordRoundTrips)
{
    std::vector<uint8_t> region(256);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    // An empty vector's data() may be null; neither push nor pop may
    // hand it to memcpy. Enough rounds to wrap the ring several times.
    const std::vector<uint8_t> empty, one = {42};
    for (int round = 0; round < 40; ++round) {
        for (const std::vector<uint8_t> &record :
             {empty, empty, one, empty})
            ASSERT_TRUE(push(ring, record));
        std::vector<uint8_t> out = {1, 2, 3};
        for (const std::vector<uint8_t> &want : {empty, empty, one, empty}) {
            ASSERT_TRUE(ring.tryPop(out));
            EXPECT_EQ(out, want);
        }
        EXPECT_TRUE(ring.empty());
    }
}

TEST(SpscRing, PopOnEmptyFails)
{
    std::vector<uint8_t> region(4096);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> out;
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, RejectsOversizedMessage)
{
    std::vector<uint8_t> region(256);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> big(1000);
    EXPECT_FALSE(push(ring, big));
}

TEST(SpscRing, FillsAndDrains)
{
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + 256);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> msg(20, 0xab);
    int pushed = 0;
    while (push(ring, msg))
        ++pushed;
    EXPECT_GT(pushed, 3);
    std::vector<uint8_t> out;
    int popped = 0;
    while (ring.tryPop(out)) {
        EXPECT_EQ(out, msg);
        ++popped;
    }
    EXPECT_EQ(popped, pushed);
}

TEST(SpscRing, WrapsAroundBoundary)
{
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + 64);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    // Repeatedly push/pop so head/tail cross the 64-byte boundary
    // many times; contents must survive the wrap.
    for (int i = 0; i < 100; ++i) {
        std::vector<uint8_t> msg(24);
        for (size_t j = 0; j < msg.size(); ++j)
            msg[j] = static_cast<uint8_t>(i + j);
        ASSERT_TRUE(push(ring, msg));
        std::vector<uint8_t> out;
        ASSERT_TRUE(ring.tryPop(out));
        ASSERT_EQ(out, msg);
    }
}

TEST(SpscRing, AttachSeesExistingData)
{
    std::vector<uint8_t> region(4096);
    SpscRing producer = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> msg = {9, 8, 7};
    ASSERT_TRUE(push(producer, msg));
    SpscRing consumer = SpscRing::attach(region.data(), region.size());
    std::vector<uint8_t> out;
    EXPECT_TRUE(consumer.tryPop(out));
    EXPECT_EQ(out, msg);
}

/** The payload bytes of record i written by drained-ring tests. */
std::vector<uint8_t>
numberedRecord(size_t len, uint32_t i)
{
    std::vector<uint8_t> record(len);
    for (size_t j = 0; j < len; ++j)
        record[j] = static_cast<uint8_t>(i * 31 + j);
    return record;
}

/** Push then pop one record on a fresh ring so it is drained at
 *  offset (at most the capacity). */
void
drainAt(SpscRing &ring, size_t offset)
{
    ASSERT_GE(offset, SpscRing::kRecordPrefix);
    std::vector<uint8_t> out;
    ASSERT_TRUE(push(ring, std::vector<uint8_t>(
                               offset - SpscRing::kRecordPrefix, 0x11)));
    ASSERT_TRUE(ring.tryPop(out));
    ASSERT_TRUE(ring.empty());
}

TEST(SpscRing, DrainedRingRestartsAtFirstByte)
{
    constexpr size_t kCap = 256;
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + kCap);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    const uint8_t *first = region.data() + SpscRing::kHeaderBytes;
    drainAt(ring, 100);

    std::vector<uint8_t> record = numberedRecord(40, 7);
    ASSERT_TRUE(push(ring, record));
    // The record sits at the data area's first byte, the wrap marker
    // where the consumer will read next.
    uint32_t prefix = 0, marker = 0;
    std::memcpy(&prefix, first, sizeof(prefix));
    std::memcpy(&marker, first + 100, sizeof(marker));
    EXPECT_EQ(prefix, record.size());
    EXPECT_EQ(marker, SpscRing::kWrapMarker);
    EXPECT_TRUE(std::equal(record.begin(), record.end(),
                           first + SpscRing::kRecordPrefix));

    // The in-place view points at those bytes until release.
    SpscRing::Front front;
    ASSERT_TRUE(ring.tryFront(front));
    EXPECT_EQ(front.bytes, first + SpscRing::kRecordPrefix);
    EXPECT_EQ(front.length, record.size());
    ring.release(front);
    EXPECT_TRUE(ring.empty());

    // Drained again after the rewind: the next record rewinds too.
    ASSERT_TRUE(push(ring, numberedRecord(10, 8)));
    std::memcpy(&prefix, first, sizeof(prefix));
    EXPECT_EQ(prefix, 10u);
    std::vector<uint8_t> out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, numberedRecord(10, 8));
}

TEST(SpscRing, RecordThatCannotRewindIsStillAccepted)
{
    // On a drained ring every record whose prefix and payload fit the
    // capacity is accepted, at any read position: one that does not
    // fit before that position is written there as before.
    constexpr size_t kCap = 64;
    for (size_t offset = SpscRing::kRecordPrefix; offset <= kCap;
         offset += 5)
        for (size_t len = 0; len + SpscRing::kRecordPrefix <= kCap;
             len += 3) {
            std::vector<uint8_t> region(SpscRing::kHeaderBytes + kCap);
            SpscRing ring =
                SpscRing::create(region.data(), region.size());
            drainAt(ring, offset);
            std::vector<uint8_t> record = numberedRecord(len, 3);
            ASSERT_TRUE(push(ring, record))
                << len << " bytes at offset " << offset;
            std::vector<uint8_t> out;
            ASSERT_TRUE(ring.tryPop(out));
            ASSERT_EQ(out, record);
            ASSERT_TRUE(ring.empty());
        }
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + kCap);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    drainAt(ring, 10);
    EXPECT_FALSE(push(ring, numberedRecord(kCap, 1)));
}

TEST(SpscRing, SizeCountsAcrossAWrapMarker)
{
    constexpr size_t kCap = 256;
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + kCap);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    drainAt(ring, 200);
    ASSERT_TRUE(push(ring, numberedRecord(50, 1)));
    // The rewound record holds the rest of the lap and its own bytes;
    // the next one queues behind it, up to the marker.
    EXPECT_FALSE(ring.empty());
    EXPECT_EQ(ring.size(), kCap - 200 + SpscRing::kRecordPrefix + 50);
    ASSERT_TRUE(push(ring, numberedRecord(30, 2)));
    EXPECT_EQ(ring.size(),
              kCap - 200 + 2 * SpscRing::kRecordPrefix + 80);
    EXPECT_FALSE(push(ring, numberedRecord(
                           200 - 80 - 3 * SpscRing::kRecordPrefix + 1,
                           3)));
    ASSERT_TRUE(push(ring, numberedRecord(
                          200 - 80 - 3 * SpscRing::kRecordPrefix, 3)));
    EXPECT_EQ(ring.size(), kCap);

    std::vector<uint8_t> out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, numberedRecord(50, 1));
    // Past the marker only the queued records count.
    EXPECT_EQ(ring.size(), 200 - SpscRing::kRecordPrefix - 50);
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, numberedRecord(30, 2));
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out.size(), 200 - 80 - 3 * SpscRing::kRecordPrefix);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRing, FrontOfAWrappedRecordHasNoInPlaceView)
{
    constexpr size_t kCap = 64;
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + kCap);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    drainAt(ring, 40);
    // 40 bytes cannot fit before offset 40, so the record wraps.
    std::vector<uint8_t> record = numberedRecord(40, 9);
    ASSERT_TRUE(push(ring, record));
    SpscRing::Front front;
    ASSERT_TRUE(ring.tryFront(front));
    EXPECT_EQ(front.bytes, nullptr);
    std::vector<uint8_t> out;
    ring.copyFront(front, out);
    EXPECT_EQ(out, record);
    EXPECT_FALSE(ring.empty()); // nothing consumed before release
    ring.release(front);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, RecordOverrunningPublishedBytesIsRejected)
{
    // Ring memory is shared with the peer: a length prefix rewritten
    // past what the producer published must not be read as a record.
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + 256);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    ASSERT_TRUE(push(ring, numberedRecord(10, 1)));
    uint32_t forged = 11;
    std::memcpy(region.data() + SpscRing::kHeaderBytes, &forged,
                sizeof(forged));
    SpscRing::Front front;
    EXPECT_THROW(ring.tryFront(front), util::FatalError);
    forged = SpscRing::kWrapMarker; // a marker with nothing after it
    std::memcpy(region.data() + SpscRing::kHeaderBytes, &forged,
                sizeof(forged));
    EXPECT_THROW(ring.tryFront(front), util::FatalError);
}

TEST(SpscRing, TwoThreadStress)
{
    // Record sizes from 1 byte to about a third of the capacity, so
    // records wrap, and drained rings rewind behind wrap markers,
    // while both threads run.
    constexpr size_t kCap = 1024;
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + kCap);
    SpscRing producer = SpscRing::create(region.data(), region.size());
    SpscRing consumer = SpscRing::attach(region.data(), region.size());
    constexpr uint32_t kCount = 20000;
    auto length_of = [](uint32_t i) {
        return 1 + static_cast<size_t>(i * 2654435761u >> 7) % (kCap / 3);
    };

    // A mismatch stops both threads instead of leaving the producer
    // spinning on a ring nobody drains.
    std::atomic<bool> mismatch{false};
    std::thread consumer_thread([&] {
        std::vector<uint8_t> out;
        for (uint32_t expected = 0; expected < kCount;) {
            if (!consumer.tryPop(out))
                continue;
            if (out != numberedRecord(length_of(expected), expected)) {
                ADD_FAILURE() << "record " << expected << " corrupted";
                mismatch = true;
                return;
            }
            ++expected;
        }
    });

    for (uint32_t i = 0; i < kCount && !mismatch;) {
        if (push(producer, numberedRecord(length_of(i), i)))
            ++i;
    }
    consumer_thread.join();
}

TEST(Codec, ScalarRoundTrip)
{
    Message msg;
    msg.kind = MsgKind::Request;
    msg.seq = 0x123456789abcull;
    msg.apiId = 42;
    msg.values.emplace_back(uint64_t{7});
    msg.values.emplace_back(int64_t{-9});
    msg.values.emplace_back(3.25);
    msg.values.emplace_back(std::string("hello"));
    Message back = roundTrip(msg);
    EXPECT_EQ(back.kind, MsgKind::Request);
    EXPECT_EQ(back.seq, msg.seq);
    EXPECT_EQ(back.apiId, 42u);
    ASSERT_EQ(back.values.size(), 4u);
    EXPECT_EQ(back.values[0].asU64(), 7u);
    EXPECT_EQ(back.values[1].asI64(), -9);
    EXPECT_DOUBLE_EQ(back.values[2].asF64(), 3.25);
    EXPECT_EQ(back.values[3].asStr(), "hello");
}

TEST(Codec, BlobAndRefRoundTrip)
{
    Message msg;
    msg.values.emplace_back(std::vector<uint8_t>{1, 2, 3, 255});
    msg.values.emplace_back(ObjectRef{3, 0xdeadbeefull});
    msg.values.emplace_back(); // None
    Message back = roundTrip(msg);
    ASSERT_EQ(back.values.size(), 3u);
    EXPECT_EQ(back.values[0].asBlob(),
              (std::vector<uint8_t>{1, 2, 3, 255}));
    EXPECT_EQ(back.values[1].asRef(), (ObjectRef{3, 0xdeadbeefull}));
    EXPECT_TRUE(back.values[2].isNone());
}

TEST(Codec, EmptyMessage)
{
    Message msg;
    Message back = roundTrip(msg);
    EXPECT_TRUE(back.values.empty());
}

TEST(Codec, TruncatedInputThrows)
{
    Message msg;
    msg.values.emplace_back(std::string("payload"));
    std::vector<uint8_t> wire = encodeBatch({msg});
    wire.resize(wire.size() - 3);
    EXPECT_ANY_THROW(decodeBatch(wire));
}

TEST(Codec, UnknownMessageKindIsRejected)
{
    // Only Request, Response and Deliver exist on the wire. A frame
    // whose kind byte is anything else is rejected even when its
    // trailer is valid (an agent controls every byte it sends).
    Message msg;
    msg.values.emplace_back(uint64_t{1});
    for (uint8_t kind : {0, 3, 4, 5, 7, 200}) {
        std::vector<uint8_t> wire = encodeBatch({msg});
        wire[2 * sizeof(uint32_t)] = kind; // count, length, then kind
        size_t body = wire.size() - sizeof(uint64_t);
        uint64_t sum = util::wideChecksum(wire.data(), body);
        std::memcpy(wire.data() + body, &sum, sizeof(sum));
        EXPECT_THROW(decodeBatch(wire), util::FatalError)
            << "kind " << int(kind);
    }
    for (MsgKind kind :
         {MsgKind::Request, MsgKind::Response, MsgKind::Deliver}) {
        msg.kind = kind;
        EXPECT_EQ(roundTrip(msg).kind, kind);
    }

    // Through the channel the frame is rejected, never delivered as a
    // message.
    osim::Kernel kernel;
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    Channel channel(kernel, "ch:kind", host.pid(), agent.pid());
    msg.kind = static_cast<MsgKind>(200);
    channel.sendResponseBatch({msg}, false);
    std::vector<Message> got;
    EXPECT_FALSE(channel.receiveResponseBatch(got));
}

TEST(Codec, WrongKindAccessPanics)
{
    Value v(uint64_t{1});
    EXPECT_ANY_THROW(v.asStr());
    EXPECT_ANY_THROW(v.asBlob());
    EXPECT_ANY_THROW(v.asRef());
    EXPECT_ANY_THROW(v.asF64());
}

TEST(Codec, WireSizeMatchesApproximateEncoding)
{
    Value blob(std::vector<uint8_t>(100));
    EXPECT_EQ(blob.wireSize(), 1 + 4 + 100u);
    Value str(std::string("abcd"));
    EXPECT_EQ(str.wireSize(), 1 + 4 + 4u);
    Value ref(ObjectRef{1, 2});
    EXPECT_EQ(ref.wireSize(), 13u);
}

TEST(Channel, RequestResponseRoundTrip)
{
    osim::Kernel kernel;
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    Channel channel(kernel, "ch:test", host.pid(), agent.pid());

    Message request;
    request.kind = MsgKind::Request;
    request.seq = 1;
    request.apiId = 5;
    request.values.emplace_back(std::string("arg"));
    channel.sendRequestBatch({request}, false);

    std::vector<Message> received;
    ASSERT_TRUE(channel.receiveRequestBatch(received));
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].apiId, 5u);
    EXPECT_EQ(received[0].values[0].asStr(), "arg");

    Message response;
    response.kind = MsgKind::Response;
    response.seq = 1;
    response.values.emplace_back(uint64_t{99});
    channel.sendResponseBatch({response}, false);

    std::vector<Message> got;
    ASSERT_TRUE(channel.receiveResponseBatch(got));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].values[0].asU64(), 99u);
}

TEST(Channel, ChargesSimulatedTime)
{
    osim::Kernel kernel;
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    Channel channel(kernel, "ch:t", host.pid(), agent.pid());
    osim::SimTime before = kernel.now();
    channel.sendRequestBatch({Message()}, false);
    EXPECT_GT(kernel.now(), before);
}

TEST(Channel, ReceiveOnEmptyChannelFails)
{
    osim::Kernel kernel;
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    Channel channel(kernel, "ch:e", host.pid(), agent.pid());
    std::vector<Message> msgs;
    EXPECT_FALSE(channel.receiveRequestBatch(msgs));
    EXPECT_FALSE(channel.receiveResponseBatch(msgs));
}

} // namespace
} // namespace freepart::ipc
