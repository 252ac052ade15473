/**
 * @file
 * Tests for ExecContext and the Invoker: device-fd caching (the
 * init-only syscall property), allocation helpers, trace sinks, and
 * the argument synthesizer's edge cases.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "fw/image_format.hh"
#include "fw/invoker.hh"
#include "osim/kernel.hh"

namespace freepart::fw {
namespace {

struct CtxFixture : ::testing::Test {
    CtxFixture()
        : kernel(), proc(kernel.spawn("ctx")),
          store(kernel, proc.pid(), &counter),
          ctx(kernel, proc, store, devices, 3)
    {
        seedFixtureFiles(kernel);
    }

    osim::Kernel kernel;
    osim::Process &proc;
    uint64_t counter = 0;
    ObjectStore store;
    DeviceFds devices;
    ExecContext ctx;
};

TEST_F(CtxFixture, GuiFdConnectsExactlyOnce)
{
    osim::Fd first = ctx.guiFd();
    osim::Fd second = ctx.guiFd();
    EXPECT_EQ(first, second);
    EXPECT_EQ(proc.syscallCounts[static_cast<size_t>(
                  osim::Syscall::Connect)],
              1u);
    EXPECT_EQ(proc.syscallCounts[static_cast<size_t>(
                  osim::Syscall::Socket)],
              1u);
}

TEST_F(CtxFixture, CameraFdOpensOnce)
{
    osim::Fd first = ctx.cameraFd();
    EXPECT_EQ(ctx.cameraFd(), first);
    EXPECT_EQ(proc.syscallCounts[static_cast<size_t>(
                  osim::Syscall::Openat)],
              1u);
}

TEST_F(CtxFixture, NetFdConnectsOnceAndCaches)
{
    osim::Fd first = ctx.netFd("mirror.example");
    EXPECT_EQ(ctx.netFd("mirror.example"), first);
    EXPECT_EQ(proc.syscallCounts[static_cast<size_t>(
                  osim::Syscall::Connect)],
              1u);
}

TEST_F(CtxFixture, DeviceFdsSharedAcrossContexts)
{
    // A second context bound to the same DeviceFds reuses the socket
    // (the per-process cache that makes connect init-only).
    osim::Fd first = ctx.guiFd();
    ExecContext other(kernel, proc, store, devices, 3);
    EXPECT_EQ(other.guiFd(), first);
}

TEST_F(CtxFixture, AllocMatIsWritableAndSized)
{
    MatDesc mat = ctx.allocMat(5, 7, 2, "m");
    EXPECT_EQ(mat.byteLen(), 70u);
    EXPECT_NO_THROW(
        proc.space().writeValue<uint8_t>(mat.addr + 69, 1));
}

TEST_F(CtxFixture, AllocTensorIsZeroInitialized)
{
    TensorDesc t = ctx.allocTensor({2, 3}, "t");
    auto values = tensorRead(proc.space(), t);
    for (float v : values)
        EXPECT_EQ(v, 0.f);
}

TEST_F(CtxFixture, TraceSinkRecordsOps)
{
    FlowTrace trace;
    ctx.setTraceSink(&trace);
    ctx.traceOp(StorageKind::Mem, StorageKind::File);
    ctx.traceOp(StorageKind::Gui, StorageKind::Mem);
    ctx.setTraceSink(nullptr);
    ctx.traceOp(StorageKind::Mem, StorageKind::Mem); // not recorded
    ASSERT_EQ(trace.ops.size(), 2u);
    EXPECT_EQ(trace.ops[0].src, StorageKind::File);
    EXPECT_EQ(trace.ops[1].dst, StorageKind::Gui);
}

TEST_F(CtxFixture, ChargeComputeAdvancesClock)
{
    osim::SimTime before = kernel.now();
    ctx.chargeCompute(1000000);
    EXPECT_GT(kernel.now(), before);
}

TEST_F(CtxFixture, PartitionIsVisibleToBodies)
{
    EXPECT_EQ(ctx.partition(), 3u);
}

TEST_F(CtxFixture, InvokerPreparesArgsForEveryImplementedApi)
{
    ApiRegistry reg = buildFullRegistry();
    Invoker invoker(kernel, store, 3);
    for (const ApiDescriptor &api : reg.all()) {
        SCOPED_TRACE(api.name);
        ASSERT_TRUE(invoker.canInvoke(api));
        ipc::ValueList args = invoker.prepareArgs(api, 7);
        // Every Ref argument resolves locally with the configured
        // partition id.
        for (const ipc::Value &value : args) {
            if (value.kind() != ipc::Value::Kind::Ref)
                continue;
            EXPECT_EQ(value.asRef().ownerPartition, 3u);
            EXPECT_TRUE(store.has(value.asRef().objectId));
        }
    }
}

TEST_F(CtxFixture, InvokerSeedsVaryContent)
{
    ApiRegistry reg = buildFullRegistry();
    Invoker invoker(kernel, store, 0);
    const ApiDescriptor &blur = reg.require("cv2.GaussianBlur");
    ipc::ValueList a = invoker.prepareArgs(blur, 1);
    ipc::ValueList b = invoker.prepareArgs(blur, 2);
    const MatDesc &ma = store.mat(a[0].asRef().objectId);
    const MatDesc &mb = store.mat(b[0].asRef().objectId);
    std::vector<uint8_t> pa(ma.byteLen()), pb(mb.byteLen());
    proc.space().read(ma.addr, pa.data(), pa.size());
    proc.space().read(mb.addr, pb.data(), pb.size());
    EXPECT_NE(pa, pb);
}

TEST(Invoker, TensorArgMatchesPerElementFormula)
{
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("inv");
    uint64_t counter = 0;
    ObjectStore store(kernel, proc.pid(), &counter);
    Invoker invoker(kernel, store, 0);
    // 505 = 21 * 23 + 22 elements, so the last period is cut short;
    // seed ~0 makes i + seed wrap after the first element.
    for (std::vector<uint32_t> shape :
         {std::vector<uint32_t>{4, 3, 3, 3}, {3, 512, 512}, {64},
          {5, 101}})
        for (uint64_t seed : {uint64_t{0}, uint64_t{7},
                              uint64_t{0xdeadbeefcafe}, ~uint64_t{0}}) {
            SCOPED_TRACE(testing::Message()
                         << shape.size() << "-d, seed " << seed);
            ipc::Value arg = invoker.makeTensorArg(shape, seed);
            std::vector<float> got =
                tensorRead(proc.space(), store.tensor(arg.asRef().objectId));
            std::vector<float> want(got.size());
            for (size_t i = 0; i < want.size(); ++i)
                want[i] =
                    static_cast<float>(((i + seed) % 23)) * 0.125f - 1.f;
            size_t elements = 1;
            for (uint32_t d : shape)
                elements *= d;
            ASSERT_EQ(got.size(), elements);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0);
        }
}

TEST_F(CtxFixture, FixtureFilesAreDecodable)
{
    TestFixture fixture;
    const auto &bytes = kernel.vfs().getFile(fixture.imagePath);
    DecodedImage img = decodeImageFile(bytes);
    EXPECT_EQ(img.rows, fixture.rows);
    EXPECT_EQ(img.cols, fixture.cols);
    EXPECT_EQ(img.channels, fixture.channels);
    EXPECT_TRUE(kernel.vfs().exists(fixture.modelPath));
    EXPECT_TRUE(kernel.vfs().exists(fixture.csvPath));
}

TEST_F(CtxFixture, CustomFixtureDimensionsRespected)
{
    osim::Kernel k2;
    TestFixture fixture;
    fixture.rows = 10;
    fixture.cols = 20;
    fixture.channels = 1;
    seedFixtureFiles(k2, fixture);
    DecodedImage img =
        decodeImageFile(k2.vfs().getFile(fixture.imagePath));
    EXPECT_EQ(img.rows, 10u);
    EXPECT_EQ(img.cols, 20u);
    EXPECT_EQ(img.channels, 1u);
}

} // namespace
} // namespace freepart::fw
