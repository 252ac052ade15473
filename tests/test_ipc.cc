/**
 * @file
 * Unit tests for the IPC layer: the SPSC ring (including wrap-around
 * and a real two-thread stress run), the value codec, and the
 * host<->agent channel over simulated shared memory.
 */

#include <gtest/gtest.h>

#include <thread>

#include "ipc/channel.hh"
#include "ipc/codec.hh"
#include "ipc/spsc_ring.hh"

namespace freepart::ipc {
namespace {

TEST(SpscRing, PushPopRoundTrip)
{
    std::vector<uint8_t> region(4096);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> msg = {1, 2, 3, 4, 5};
    EXPECT_TRUE(ring.tryPush(msg.data(), msg.size()));
    EXPECT_EQ(ring.peekLength(), 5u);
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
        ASSERT_TRUE(ring.tryPush(empty.data(), empty.size()));
        ASSERT_TRUE(ring.tryPushBatch({empty, one, empty}));
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
    EXPECT_EQ(ring.peekLength(), 0u);
}

TEST(SpscRing, RejectsOversizedMessage)
{
    std::vector<uint8_t> region(256);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> big(1000);
    EXPECT_FALSE(ring.tryPush(big.data(), big.size()));
}

TEST(SpscRing, FillsAndDrains)
{
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + 256);
    SpscRing ring = SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> msg(20, 0xab);
    int pushed = 0;
    while (ring.tryPush(msg.data(), msg.size()))
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
        ASSERT_TRUE(ring.tryPush(msg.data(), msg.size()));
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
    producer.tryPush(msg.data(), msg.size());
    SpscRing consumer = SpscRing::attach(region.data(), region.size());
    std::vector<uint8_t> out;
    EXPECT_TRUE(consumer.tryPop(out));
    EXPECT_EQ(out, msg);
}

TEST(SpscRing, TwoThreadStress)
{
    std::vector<uint8_t> region(SpscRing::kHeaderBytes + 1024);
    SpscRing producer = SpscRing::create(region.data(), region.size());
    SpscRing consumer = SpscRing::attach(region.data(), region.size());
    constexpr int kCount = 20000;

    std::thread consumer_thread([&] {
        std::vector<uint8_t> out;
        for (int expected = 0; expected < kCount;) {
            if (!consumer.tryPop(out))
                continue;
            ASSERT_EQ(out.size(), sizeof(int));
            int value;
            std::memcpy(&value, out.data(), sizeof(int));
            ASSERT_EQ(value, expected);
            ++expected;
        }
    });

    for (int i = 0; i < kCount;) {
        if (producer.tryPush(reinterpret_cast<uint8_t *>(&i),
                             sizeof(int)))
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
    Message back = decodeMessage(encodeMessage(msg));
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
    Message back = decodeMessage(encodeMessage(msg));
    ASSERT_EQ(back.values.size(), 3u);
    EXPECT_EQ(back.values[0].asBlob(),
              (std::vector<uint8_t>{1, 2, 3, 255}));
    EXPECT_EQ(back.values[1].asRef(), (ObjectRef{3, 0xdeadbeefull}));
    EXPECT_TRUE(back.values[2].isNone());
}

TEST(Codec, EmptyMessage)
{
    Message msg;
    Message back = decodeMessage(encodeMessage(msg));
    EXPECT_TRUE(back.values.empty());
}

TEST(Codec, TruncatedInputThrows)
{
    Message msg;
    msg.values.emplace_back(std::string("payload"));
    std::vector<uint8_t> wire = encodeMessage(msg);
    wire.resize(wire.size() - 3);
    EXPECT_ANY_THROW(decodeMessage(wire));
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
    channel.sendRequest(request);

    Message received;
    ASSERT_TRUE(channel.receiveRequest(received));
    EXPECT_EQ(received.apiId, 5u);
    EXPECT_EQ(received.values[0].asStr(), "arg");

    Message response;
    response.kind = MsgKind::Response;
    response.seq = 1;
    response.values.emplace_back(uint64_t{99});
    channel.sendResponse(response);

    Message got;
    ASSERT_TRUE(channel.receiveResponse(got));
    EXPECT_EQ(got.values[0].asU64(), 99u);

    EXPECT_EQ(channel.stats().requests, 1u);
    EXPECT_EQ(channel.stats().responses, 1u);
    EXPECT_GT(channel.stats().bytesSent, 0u);
}

TEST(Channel, ChargesSimulatedTime)
{
    osim::Kernel kernel;
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    Channel channel(kernel, "ch:t", host.pid(), agent.pid());
    osim::SimTime before = kernel.now();
    Message msg;
    channel.sendRequest(msg);
    EXPECT_GT(kernel.now(), before);
}

TEST(Channel, ReceiveOnEmptyChannelFails)
{
    osim::Kernel kernel;
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    Channel channel(kernel, "ch:e", host.pid(), agent.pid());
    Message msg;
    EXPECT_FALSE(channel.receiveRequest(msg));
    EXPECT_FALSE(channel.receiveResponse(msg));
}

} // namespace
} // namespace freepart::ipc
