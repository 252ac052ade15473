/**
 * @file
 * Direct correctness tests for the MiniDNN tensor kernels, exercised
 * through the registered API bodies: convolution against hand-
 * computed values, pooling extrema/means, activation identities,
 * softmax normalization, the SGD step of Backward, and model-file
 * round trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fw/api_registry.hh"
#include "fw/invoker.hh"
#include "osim/kernel.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace freepart::fw {
namespace {

namespace ref {

/** The per-output conv2d loop: {C,H,W} * {O,C,K,K}, valid padding. */
std::vector<float>
conv2d(const std::vector<float> &in, uint32_t c, uint32_t h, uint32_t wd,
       const std::vector<float> &w, uint32_t o, uint32_t k)
{
    uint32_t oh = h - k + 1, ow = wd - k + 1;
    std::vector<float> out(static_cast<size_t>(o) * oh * ow);
    for (uint32_t oc = 0; oc < o; ++oc)
        for (uint32_t r = 0; r < oh; ++r)
            for (uint32_t cc = 0; cc < ow; ++cc) {
                float acc = 0.f;
                for (uint32_t ic = 0; ic < c; ++ic)
                    for (uint32_t kr = 0; kr < k; ++kr)
                        for (uint32_t kc = 0; kc < k; ++kc)
                            acc += in[(static_cast<size_t>(ic) * h + r +
                                       kr) * wd +
                                      cc + kc] *
                                   w[((static_cast<size_t>(oc) * c + ic) *
                                          k +
                                      kr) * k +
                                     kc];
                out[(static_cast<size_t>(oc) * oh + r) * ow + cc] = acc;
            }
    return out;
}

} // namespace ref

class DnnFixture : public ::testing::Test
{
  protected:
    DnnFixture()
        : reg(buildFullRegistry()), kernel(),
          proc(kernel.spawn("dnn-test")),
          store(kernel, proc.pid(), &counter),
          ctx(kernel, proc, store, devices, 0)
    {
        seedFixtureFiles(kernel);
    }

    /** Create a tensor with explicit values; returns its Ref. */
    ipc::Value
    tensor(std::vector<uint32_t> shape, std::vector<float> values)
    {
        TensorDesc t;
        t.shape = std::move(shape);
        t.addr = proc.space().alloc(t.byteLen(), osim::PermRW, "t");
        tensorWrite(proc.space(), t, values);
        return refValue(0, store.putTensor(t, "t"));
    }

    /** Run an API and read its first returned tensor. */
    std::vector<float>
    runToTensor(const std::string &api, ipc::ValueList args,
                std::vector<uint32_t> *shape_out = nullptr)
    {
        const ApiDescriptor &desc = reg.require(api);
        ipc::ValueList out = desc.fn(ctx, desc, args);
        const TensorDesc &t =
            store.tensor(out.at(0).asRef().objectId);
        if (shape_out)
            *shape_out = t.shape;
        return tensorRead(proc.space(), t);
    }

    ApiRegistry reg;
    osim::Kernel kernel;
    osim::Process &proc;
    uint64_t counter = 0;
    ObjectStore store;
    DeviceFds devices;
    ExecContext ctx;
};

TEST_F(DnnFixture, Conv2dIdentityKernel)
{
    // 1x1 "identity" conv: weight {1,1,1,1} with value 1 copies the
    // input.
    ipc::Value in = tensor({1, 3, 3},
                           {1, 2, 3, 4, 5, 6, 7, 8, 9});
    ipc::Value w = tensor({1, 1, 1, 1}, {1.f});
    std::vector<uint32_t> shape;
    auto out = runToTensor("torch.nn.Conv2d", {in, w}, &shape);
    EXPECT_EQ(shape, (std::vector<uint32_t>{1, 3, 3}));
    EXPECT_EQ(out,
              (std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST_F(DnnFixture, Conv2dHandComputedSum)
{
    // 3x3 all-ones kernel over a 4x4 ramp: each output is the sum of
    // the covered 3x3 window.
    std::vector<float> ramp(16);
    for (int i = 0; i < 16; ++i)
        ramp[static_cast<size_t>(i)] = static_cast<float>(i);
    ipc::Value in = tensor({1, 4, 4}, ramp);
    ipc::Value w = tensor({1, 1, 3, 3},
                          std::vector<float>(9, 1.f));
    std::vector<uint32_t> shape;
    auto out = runToTensor("tf.nn.conv2d", {in, w}, &shape);
    EXPECT_EQ(shape, (std::vector<uint32_t>{1, 2, 2}));
    // Window at (0,0): 0+1+2+4+5+6+8+9+10 = 45.
    EXPECT_FLOAT_EQ(out[0], 45.f);
    EXPECT_FLOAT_EQ(out[1], 54.f);
    EXPECT_FLOAT_EQ(out[2], 81.f);
    EXPECT_FLOAT_EQ(out[3], 90.f);
}

TEST_F(DnnFixture, Conv2dMultiChannelAccumulates)
{
    // Two input channels, kernel 1x1 with weights (2, 3):
    // out = 2*c0 + 3*c1.
    ipc::Value in = tensor({2, 2, 2},
                           {1, 1, 1, 1, 10, 10, 10, 10});
    ipc::Value w = tensor({1, 2, 1, 1}, {2.f, 3.f});
    auto out = runToTensor("torch.nn.Conv2d", {in, w});
    for (float v : out)
        EXPECT_FLOAT_EQ(v, 32.f);
}

TEST_F(DnnFixture, Conv2dBitIdenticalToPerOutputLoop)
{
    // Non-dyadic values, so every product and partial sum rounds.
    util::Rng rng(0xc0d2);
    auto values = [&](size_t n) {
        std::vector<float> v(n);
        for (float &x : v)
            x = static_cast<float>(rng.range(-1000, 1000)) / 37.f;
        return v;
    };
    struct Case {
        uint32_t c, h, w, o, k;
    };
    std::vector<Case> cases;
    for (uint32_t c = 1; c <= 4; ++c)
        for (uint32_t k = 1; k <= 5; ++k)
            for (auto [h, w] : {std::pair{k, k}, {k, 9u}, {7u, k + 2},
                                {9u, 13u}})
                if (k <= h && k <= w)
                    cases.push_back({c, h, w, 1 + (k + c) % 3, k});
    cases.push_back({3, 1, 17, 2, 1}); // 1xN
    cases.push_back({2, 17, 1, 2, 1}); // Nx1
    cases.push_back({3, 33, 33, 4, 3}); // the workload's tensor shape
    cases.push_back({3, 512, 512, 4, 3}); // the benches' tensor shape
    for (const Case &t : cases) {
        SCOPED_TRACE(testing::Message() << "C" << t.c << " " << t.h << "x"
                                        << t.w << " O" << t.o << " K"
                                        << t.k);
        std::vector<float> in = values(size_t(t.c) * t.h * t.w);
        std::vector<float> w = values(size_t(t.o) * t.c * t.k * t.k);
        std::vector<float> out =
            runToTensor("tf.nn.conv2d",
                        {tensor({t.c, t.h, t.w}, in),
                         tensor({t.o, t.c, t.k, t.k}, w)});
        std::vector<float> want =
            ref::conv2d(in, t.c, t.h, t.w, w, t.o, t.k);
        ASSERT_EQ(out.size(), want.size());
        EXPECT_EQ(std::memcmp(out.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
    }
}

TEST_F(DnnFixture, MaxPoolTakesWindowMaximum)
{
    ipc::Value in = tensor({1, 4, 4},
                           {1, 2, 5, 6,   //
                            3, 4, 7, 8,   //
                            9, 10, 13, 14, //
                            11, 12, 15, 16});
    std::vector<uint32_t> shape;
    auto out =
        runToTensor("torch.nn.MaxPool2d", {in}, &shape);
    EXPECT_EQ(shape, (std::vector<uint32_t>{1, 2, 2}));
    EXPECT_EQ(out, (std::vector<float>{4, 8, 12, 16}));
}

TEST_F(DnnFixture, AvgPoolTakesWindowMean)
{
    ipc::Value in = tensor({1, 2, 2}, {1, 3, 5, 7});
    auto out = runToTensor("tf.nn.avg_pool", {in});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0], 4.f);
}

TEST_F(DnnFixture, ReluClampsNegatives)
{
    ipc::Value in = tensor({4}, {-2.f, -0.5f, 0.f, 3.f});
    auto out = runToTensor("torch.relu", {in});
    EXPECT_EQ(out, (std::vector<float>{0, 0, 0, 3}));
}

TEST_F(DnnFixture, SoftmaxSumsToOneAndPreservesOrder)
{
    ipc::Value in = tensor({4}, {1.f, 2.f, 3.f, 4.f});
    auto out = runToTensor("torch.softmax", {in});
    float sum = 0;
    for (float v : out)
        sum += v;
    EXPECT_NEAR(sum, 1.f, 1e-5);
    EXPECT_LT(out[0], out[1]);
    EXPECT_LT(out[2], out[3]);
    // Known value: e^4 / sum(e^1..e^4).
    double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0) +
                   std::exp(4.0);
    EXPECT_NEAR(out[3], std::exp(4.0) / denom, 1e-5);
}

TEST_F(DnnFixture, SoftmaxNumericallyStableForLargeInputs)
{
    ipc::Value in = tensor({3}, {1000.f, 1000.f, 1000.f});
    auto out = runToTensor("torch.softmax", {in});
    for (float v : out)
        EXPECT_NEAR(v, 1.f / 3.f, 1e-5);
}

TEST_F(DnnFixture, LinearMatchesMatrixVectorProduct)
{
    ipc::Value in = tensor({3}, {1.f, 2.f, 3.f});
    // Weight rows: (1,0,0) -> 1; (1,1,1) -> 6.
    ipc::Value w = tensor({2, 3}, {1, 0, 0, 1, 1, 1});
    auto out = runToTensor("torch.nn.Linear", {in, w});
    EXPECT_EQ(out, (std::vector<float>{1.f, 6.f}));
}

TEST_F(DnnFixture, ArgmaxFindsMaximumIndex)
{
    const ApiDescriptor &desc = reg.require("torch.argmax");
    ipc::Value in = tensor({5}, {0.1f, 7.f, -3.f, 6.9f, 2.f});
    ipc::ValueList out = desc.fn(ctx, desc, {in});
    EXPECT_EQ(out.at(0).asU64(), 1u);
}

TEST_F(DnnFixture, MeanAveragesElements)
{
    const ApiDescriptor &desc = reg.require("np.mean");
    ipc::Value in = tensor({4}, {1.f, 2.f, 3.f, 10.f});
    ipc::ValueList out = desc.fn(ctx, desc, {in});
    EXPECT_DOUBLE_EQ(out.at(0).asF64(), 4.0);
}

TEST_F(DnnFixture, BackwardAppliesSgdStepInPlace)
{
    ipc::Value w = tensor({3}, {1.f, 1.f, 1.f});
    ipc::Value g = tensor({3}, {10.f, 0.f, -10.f});
    const ApiDescriptor &desc = reg.require("caffe.Net.Backward");
    ipc::ValueList out =
        desc.fn(ctx, desc, {w, g, ipc::Value(0.1)});
    // In-place update: the returned ref is the weight tensor.
    EXPECT_EQ(out.at(0).asRef().objectId, w.asRef().objectId);
    auto values = tensorRead(
        proc.space(), store.tensor(w.asRef().objectId));
    EXPECT_FLOAT_EQ(values[0], 0.f);
    EXPECT_FLOAT_EQ(values[1], 1.f);
    EXPECT_FLOAT_EQ(values[2], 2.f);
}

TEST_F(DnnFixture, TrainStepMovesWeightsTowardDataMean)
{
    ipc::Value w = tensor({2}, {0.f, 0.f});
    ipc::Value x = tensor({2}, {10.f, 10.f});
    const ApiDescriptor &desc =
        reg.require("tf.estimator.DNNClassifier.train");
    desc.fn(ctx, desc, {w, x});
    auto values = tensorRead(
        proc.space(), store.tensor(w.asRef().objectId));
    EXPECT_GT(values[0], 0.f);
    EXPECT_LT(values[0], 10.f);
    // A second step moves further.
    float first = values[0];
    desc.fn(ctx, desc, {w, x});
    values = tensorRead(proc.space(),
                        store.tensor(w.asRef().objectId));
    EXPECT_GT(values[0], first);
}

TEST_F(DnnFixture, ModelSaveLoadRoundTrip)
{
    ipc::Value w = tensor({4}, {1.5f, -2.f, 0.f, 42.f});
    const ApiDescriptor &save = reg.require("torch.save");
    save.fn(ctx, save,
            {ipc::Value(std::string("/models/w.fpt")), w});
    ASSERT_TRUE(kernel.vfs().exists("/models/w.fpt"));

    const ApiDescriptor &load = reg.require("torch.load");
    ipc::ValueList out = load.fn(
        ctx, load, {ipc::Value(std::string("/models/w.fpt"))});
    auto values = tensorRead(
        proc.space(), store.tensor(out.at(0).asRef().objectId));
    EXPECT_EQ(values, (std::vector<float>{1.5f, -2.f, 0.f, 42.f}));
}

/** Model file bytes made of the given 32-bit words. */
std::vector<uint8_t>
modelFile(const std::vector<uint32_t> &words)
{
    std::vector<uint8_t> bytes(words.size() * sizeof(uint32_t));
    std::memcpy(bytes.data(), words.data(), bytes.size());
    return bytes;
}

TEST_F(DnnFixture, ModelFileShorterThanItsShapeIsRejected)
{
    // Rank 8 promises 32 shape bytes; the file ends after the rank.
    kernel.vfs().putFile("/models/short.fpt", modelFile({8}));
    const ApiDescriptor &load = reg.require("torch.load");
    try {
        load.fn(ctx, load, {ipc::Value(std::string("/models/short.fpt"))});
        FAIL() << "a truncated shape loaded";
    } catch (const util::FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("truncated shape"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(DnnFixture, ModelFileWhoseSizeOverflowsIsRejected)
{
    // 2^22 * 2^21 * 2^21 elements wrap a 64-bit size to 0, which
    // would load as an empty tensor that a later kernel trips over.
    std::vector<uint8_t> bytes =
        modelFile({3, 1u << 22, 1u << 21, 1u << 21});
    kernel.vfs().putFile("/models/wrap.fpt", bytes);
    const ApiDescriptor &load = reg.require("torch.load");
    EXPECT_THROW(
        load.fn(ctx, load, {ipc::Value(std::string("/models/wrap.fpt"))}),
        util::FatalError);
    // The wire decoder shares the header parse.
    EXPECT_THROW(tensorFromBytes(proc.space(), bytes), util::FatalError);
}

TEST_F(DnnFixture, Conv2dRejectsMismatchedChannels)
{
    ipc::Value in = tensor({2, 4, 4}, std::vector<float>(32, 1.f));
    ipc::Value w = tensor({1, 3, 3, 3},
                          std::vector<float>(27, 1.f));
    const ApiDescriptor &desc = reg.require("torch.nn.Conv2d");
    EXPECT_ANY_THROW(desc.fn(ctx, desc, {in, w}));
}

TEST_F(DnnFixture, Conv2dRejectsNonSquareKernel)
{
    // {O,C,5,3} holds 15 taps per channel, not the 25 a 5x5 reads.
    ipc::Value in = tensor({1, 6, 6}, std::vector<float>(36, 1.f));
    ipc::Value w = tensor({1, 1, 5, 3}, std::vector<float>(15, 1.f));
    const ApiDescriptor &desc = reg.require("torch.nn.Conv2d");
    EXPECT_ANY_THROW(desc.fn(ctx, desc, {in, w}));
}

TEST_F(DnnFixture, Conv2dRejectsKernelLargerThanInput)
{
    ipc::Value in = tensor({1, 2, 2}, {1, 2, 3, 4});
    ipc::Value w = tensor({1, 1, 3, 3},
                          std::vector<float>(9, 1.f));
    const ApiDescriptor &desc = reg.require("tf.nn.conv2d");
    EXPECT_ANY_THROW(desc.fn(ctx, desc, {in, w}));
}

TEST_F(DnnFixture, LinearRejectsDimensionMismatch)
{
    ipc::Value in = tensor({4}, {1, 2, 3, 4});
    ipc::Value w = tensor({2, 3}, {1, 0, 0, 0, 1, 0});
    const ApiDescriptor &desc = reg.require("torch.nn.Linear");
    EXPECT_ANY_THROW(desc.fn(ctx, desc, {in, w}));
}

TEST_F(DnnFixture, GetFileDownloadsSpillsAndReloads)
{
    const ApiDescriptor &desc =
        reg.require("tf.keras.utils.get_file");
    FlowTrace trace;
    ctx.setTraceSink(&trace);
    ipc::ValueList out = desc.fn(
        ctx, desc, {ipc::Value(std::string("http://x/weights"))});
    ctx.setTraceSink(nullptr);
    ASSERT_EQ(out.size(), 1u);
    // The observed flow is the full download->spill->reload chain.
    ASSERT_EQ(trace.ops.size(), 3u);
    EXPECT_EQ(trace.ops[0].src, StorageKind::Dev);
    EXPECT_EQ(trace.ops[1].dst, StorageKind::File);
    EXPECT_EQ(trace.ops[2].src, StorageKind::File);
    // The spilled cache file exists.
    EXPECT_TRUE(kernel.vfs().exists("/tmp/get_file.cache"));
    // Deterministic content: a second download returns identical
    // bytes.
    const StoredObject &obj = store.get(out[0].asRef().objectId);
    std::vector<uint8_t> first(obj.byteLen);
    proc.space().read(obj.addr, first.data(), obj.byteLen);
    ipc::ValueList again = desc.fn(
        ctx, desc, {ipc::Value(std::string("http://x/weights"))});
    const StoredObject &obj2 = store.get(again[0].asRef().objectId);
    std::vector<uint8_t> second(obj2.byteLen);
    proc.space().read(obj2.addr, second.data(), obj2.byteLen);
    EXPECT_EQ(first, second);
}

TEST_F(DnnFixture, TorchTensorFromBlob)
{
    const ApiDescriptor &desc = reg.require("torch.tensor");
    std::vector<uint8_t> blob(3 * sizeof(float));
    float values[3] = {1.5f, 2.5f, 3.5f};
    std::memcpy(blob.data(), values, sizeof(values));
    ipc::ValueList out =
        desc.fn(ctx, desc, {ipc::Value(std::move(blob))});
    auto read = tensorRead(
        proc.space(), store.tensor(out.at(0).asRef().objectId));
    EXPECT_EQ(read, (std::vector<float>{1.5f, 2.5f, 3.5f}));
}

} // namespace
} // namespace freepart::fw
