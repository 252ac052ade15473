/**
 * @file
 * Tests for the framework data layer: Mat/Tensor serialization and
 * views, the object store, the FPIM image format (including exploit
 * trailers), and the exploit-payload codec.
 */

#include <gtest/gtest.h>

#include "fw/image_format.hh"
#include "fw/mat.hh"
#include "fw/object_store.hh"
#include "fw/tensor.hh"
#include "fw/vuln.hh"
#include "osim/kernel.hh"

namespace freepart::fw {
namespace {

TEST(Mat, ByteLenAndElements)
{
    MatDesc m{4, 6, 3, 0x1000};
    EXPECT_EQ(m.byteLen(), 72u);
    EXPECT_EQ(m.elements(), 72u);
    EXPECT_TRUE(m.valid());
    EXPECT_FALSE(MatDesc().valid());
}

TEST(Mat, SerializationRoundTrip)
{
    osim::AddressSpace space(1);
    MatDesc src;
    src.rows = 3;
    src.cols = 5;
    src.channels = 2;
    src.addr = space.alloc(src.byteLen());
    std::vector<uint8_t> pixels = synthPixels(3, 5, 2, 42);
    space.write(src.addr, pixels.data(), pixels.size());

    std::vector<uint8_t> wire = matToBytes(space, src);
    MatDesc back = parseMatHeader(wire, "test");
    EXPECT_EQ(back.rows, 3u);
    EXPECT_EQ(back.cols, 5u);
    EXPECT_EQ(back.channels, 2u);
    EXPECT_EQ(std::vector<uint8_t>(wire.begin() + kMatHeaderBytes,
                                   wire.end()),
              pixels);
}

TEST(Mat, TruncatedBytesRejected)
{
    std::vector<uint8_t> junk(8, 0);
    EXPECT_ANY_THROW(parseMatHeader(junk, "test"));
    std::vector<uint8_t> short_pixels(kMatHeaderBytes + 5, 0);
    short_pixels[0] = short_pixels[4] = short_pixels[8] = 2; // 2x2x2
    EXPECT_ANY_THROW(parseMatHeader(short_pixels, "test"));
}

TEST(Mat, ViewRespectsProtection)
{
    osim::AddressSpace space(1);
    MatDesc m{2, 2, 1, 0};
    m.addr = space.alloc(m.byteLen());
    space.protect(m.addr, m.byteLen(), osim::PermRead);
    EXPECT_NO_THROW(MatView(space, m));
    EXPECT_THROW(MatView(space, m, true), osim::MemFault);
}

TEST(Mat, ViewPixelAccessors)
{
    osim::AddressSpace space(1);
    MatDesc m{2, 3, 2, 0};
    m.addr = space.alloc(m.byteLen());
    MatView view(space, m, true);
    view.set(1, 2, 1, 99);
    EXPECT_EQ(view.at(1, 2, 1), 99);
    EXPECT_EQ(view.at(0, 0, 0), 0);
}

TEST(Tensor, ShapeArithmetic)
{
    TensorDesc t;
    t.shape = {2, 3, 4};
    EXPECT_EQ(t.elements(), 24u);
    EXPECT_EQ(t.byteLen(), 96u);
    TensorDesc empty;
    EXPECT_EQ(empty.elements(), 0u);
}

TEST(Tensor, SerializationRoundTrip)
{
    osim::AddressSpace space(1);
    TensorDesc t;
    t.shape = {2, 5};
    t.addr = space.alloc(t.byteLen());
    std::vector<float> values(10);
    for (size_t i = 0; i < 10; ++i)
        values[i] = static_cast<float>(i) * 1.5f;
    tensorWrite(space, t, values);

    std::vector<uint8_t> wire = tensorToBytes(space, t);
    TensorDesc back = tensorFromBytes(space, wire);
    EXPECT_EQ(back.shape, (std::vector<uint32_t>{2, 5}));
    EXPECT_EQ(tensorRead(space, back), values);
}

TEST(Tensor, ImplausibleRankRejected)
{
    osim::AddressSpace space(1);
    std::vector<uint8_t> bad(64, 0xff);
    EXPECT_ANY_THROW(tensorFromBytes(space, bad));
}

TEST(ObjectStore, PutGetEraseMat)
{
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("p");
    uint64_t counter = 0;
    ObjectStore store(kernel, proc.pid(), &counter);
    MatDesc m{2, 2, 1, proc.space().alloc(4)};
    uint64_t id = store.putMat(m, "m");
    EXPECT_TRUE(store.has(id));
    EXPECT_EQ(store.mat(id).rows, 2u);
    EXPECT_EQ(store.get(id).kind, ObjKind::Mat);
    EXPECT_EQ(store.count(), 1u);
    store.erase(id);
    EXPECT_FALSE(store.has(id));
}

TEST(ObjectStore, IdsUniqueAcrossStoresSharingCounter)
{
    osim::Kernel kernel;
    osim::Process &a = kernel.spawn("a");
    osim::Process &b = kernel.spawn("b");
    uint64_t counter = 0;
    ObjectStore sa(kernel, a.pid(), &counter);
    ObjectStore sb(kernel, b.pid(), &counter);
    uint64_t ida = sa.putBytes(a.space().alloc(8), 8);
    uint64_t idb = sb.putBytes(b.space().alloc(8), 8);
    EXPECT_NE(ida, idb);
}

TEST(ObjectStore, SerializeMaterializePreservesIdAndData)
{
    osim::Kernel kernel;
    osim::Process &a = kernel.spawn("a");
    osim::Process &b = kernel.spawn("b");
    uint64_t counter = 0;
    ObjectStore sa(kernel, a.pid(), &counter);
    ObjectStore sb(kernel, b.pid(), &counter);

    MatDesc m{2, 2, 1, a.space().alloc(4)};
    a.space().writeValue<uint32_t>(m.addr, 0xaabbccdd);
    uint64_t id = sa.putMat(m, "img");

    sb.restore(id,
               snapshotFromBytes(ObjKind::Mat, sa.serialize(id), "img"));
    EXPECT_TRUE(sb.has(id));
    EXPECT_EQ(
        b.space().readValue<uint32_t>(sb.mat(id).addr), 0xaabbccddu);
}

TEST(ObjectStore, ZeroByteObjectSnapshotRoundTrip)
{
    // An empty object's serialized form has no byte buffer at all:
    // neither serialize() nor snapshotFromBytes() may hand its null
    // data() to memcpy.
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("p");
    uint64_t counter = 0;
    ObjectStore store(kernel, proc.pid(), &counter);
    uint64_t id = store.putBytes(proc.space().alloc(1), 0, "empty");
    ObjectSnapshot snap = store.snapshot(id);
    EXPECT_EQ(snap.size(), 0u);
    store.restore(id, snap);
    EXPECT_EQ(store.get(id).byteLen, 0u);
    EXPECT_TRUE(store.serialize(id).empty());
    store.restore(id, snapshotFromBytes(ObjKind::Bytes, {}, "empty"));
    EXPECT_TRUE(store.serialize(id).empty());
}

TEST(ObjectStore, SnapshotSizeIsTheSerializedSize)
{
    // Every copy of an object is charged and counted by its snapshot's
    // size(), which must stay the length of its serialized form.
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("p");
    uint64_t counter = 0;
    ObjectStore store(kernel, proc.pid(), &counter);
    MatDesc mat{5, 7, 3, proc.space().alloc(105)};
    TensorDesc tensor{{2, 3, 4}, proc.space().alloc(96)};
    for (uint64_t id :
         {store.putMat(mat, "m"), store.putTensor(tensor, "t"),
          store.putBytes(proc.space().alloc(10), 10, "b")}) {
        std::vector<uint8_t> wire = store.serialize(id);
        ObjectSnapshot snap = store.snapshot(id);
        EXPECT_EQ(snap.size(), wire.size()) << snap.label;
        EXPECT_EQ(snapshotFromBytes(snap.kind, wire, snap.label).size(),
                  wire.size())
            << snap.label;
    }
}

TEST(ObjectStore, MatchesComparesBytesOnlyAfterAStore)
{
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("p");
    uint64_t counter = 0;
    ObjectStore store(kernel, proc.pid(), &counter);
    MatDesc m{2, 4, 1, proc.space().alloc(8)};
    proc.space().writeValue<uint64_t>(m.addr, 0x0102030405060708ull);
    uint64_t id = store.putMat(m, "img");
    ObjectSnapshot snap = store.snapshot(id);
    EXPECT_TRUE(store.matches(id, snap));
    // Rewriting identical bytes clones the mapping but changes nothing.
    proc.space().writeValue<uint64_t>(m.addr, 0x0102030405060708ull);
    EXPECT_NE(proc.space().findMapping(m.addr)->backing, snap.backing);
    EXPECT_TRUE(store.matches(id, snap));
    proc.space().writeValue<uint8_t>(m.addr + 7, 0);
    EXPECT_FALSE(store.matches(id, snap));
    store.restore(id, snap);
    EXPECT_TRUE(store.matches(id, snap));
    EXPECT_EQ(proc.space().readValue<uint64_t>(store.mat(id).addr),
              0x0102030405060708ull);
}

TEST(ObjectStore, EraseUnmapsOnlyTheObjectsOwnMapping)
{
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("p");
    uint64_t counter = 0;
    ObjectStore store(kernel, proc.pid(), &counter);
    osim::AddressSpace &space = proc.space();
    osim::Addr whole = space.alloc(100);
    osim::Addr region = space.alloc(3 * osim::kPageSize);
    uint64_t own = store.putBytes(whole, 100, "own");
    uint64_t part = store.putBytes(region + 16, 32, "part");
    size_t before = space.mappingCount();

    store.erase(own);
    EXPECT_EQ(space.mappingCount(), before - 1);
    EXPECT_THROW(space.readValue<uint8_t>(whole), osim::MemFault);
    // A snapshot still shares the bytes of an erased object.
    uint64_t kept = store.putBytes(space.alloc(8), 8, "kept");
    space.writeValue<uint8_t>(store.get(kept).addr, 9);
    ObjectSnapshot snap = store.snapshot(kept);
    store.erase(kept);
    EXPECT_EQ(snap.data()[0], 9);

    store.erase(part);
    EXPECT_EQ(space.mappingCount(), before - 1);
    EXPECT_TRUE(space.isMapped(region, 3 * osim::kPageSize));
}

TEST(ObjectStore, WrongKindAccessPanics)
{
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("p");
    uint64_t counter = 0;
    ObjectStore store(kernel, proc.pid(), &counter);
    uint64_t id = store.putBytes(proc.space().alloc(8), 8);
    EXPECT_ANY_THROW(store.mat(id));
    EXPECT_ANY_THROW(store.tensor(id));
}

TEST(ImageFormat, EncodeDecodeRoundTrip)
{
    std::vector<uint8_t> pixels = synthPixels(5, 7, 3, 9);
    std::vector<uint8_t> file = encodeImageFile(5, 7, 3, pixels);
    DecodedImage img = decodeImageFile(file);
    EXPECT_EQ(img.rows, 5u);
    EXPECT_EQ(img.cols, 7u);
    EXPECT_EQ(img.channels, 3u);
    EXPECT_EQ(img.pixels, pixels);
    EXPECT_TRUE(img.trailer.empty());
    EXPECT_TRUE(looksLikeImageFile(file));
}

TEST(ImageFormat, BadMagicRejected)
{
    std::vector<uint8_t> junk(32, 0x5a);
    EXPECT_ANY_THROW(decodeImageFile(junk));
    EXPECT_FALSE(looksLikeImageFile(junk));
}

TEST(ImageFormat, TruncatedPixelsRejected)
{
    std::vector<uint8_t> pixels = synthPixels(4, 4, 1, 0);
    std::vector<uint8_t> file = encodeImageFile(4, 4, 1, pixels);
    file.resize(file.size() - 5);
    EXPECT_ANY_THROW(decodeImageFile(file));
}

TEST(ImageFormat, ExploitTrailerSurvivesEncode)
{
    ExploitPayload payload;
    payload.kind = PayloadKind::OobWrite;
    payload.cve = "CVE-2017-12597";
    payload.targetAddr = 0x4000;
    payload.writeData = {1, 2, 3};
    std::vector<uint8_t> pixels = synthPixels(4, 4, 1, 0);
    std::vector<uint8_t> file =
        encodeImageFile(4, 4, 1, pixels, payload);
    DecodedImage img = decodeImageFile(file);
    auto decoded = decodePayload(img.trailer);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->cve, "CVE-2017-12597");
    EXPECT_EQ(decoded->targetAddr, 0x4000u);
    EXPECT_EQ(decoded->writeData, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(ImageFormat, SynthPixelsMatchesPerPixelFormula)
{
    // The large seeds make seed*13 wrap in 64 bits; the row-wise
    // synthesis must keep the same low byte.
    for (uint64_t seed : {uint64_t{0}, uint64_t{7},
                          uint64_t{0xdeadbeefcafe}, ~uint64_t{0}})
        for (uint32_t ch = 1; ch <= 4; ++ch)
            for (auto [rows, cols] : {std::pair<uint32_t, uint32_t>{1, 1},
                                      {3, 5},
                                      {9, 1},
                                      {1, 300},
                                      {257, 255},
                                      {0, 4},
                                      {4, 0}}) {
                std::vector<uint8_t> want;
                for (uint32_t r = 0; r < rows; ++r)
                    for (uint32_t c = 0; c < cols; ++c)
                        for (uint32_t k = 0; k < ch; ++k)
                            want.push_back(static_cast<uint8_t>(
                                (r * 5 + c * 3 + k * 17 + seed * 13) &
                                0xff));
                EXPECT_EQ(synthPixels(rows, cols, ch, seed), want)
                    << rows << "x" << cols << "x" << ch << " seed "
                    << seed;
            }
}

TEST(Payload, CodecRoundTripAllFields)
{
    ExploitPayload p;
    p.kind = PayloadKind::Exfiltrate;
    p.cve = "CVE-2020-10378";
    p.leakAddr = 0xbeef000;
    p.leakLen = 128;
    p.dest = "attacker.example";
    p.forkCount = 3;
    auto back = decodePayload(encodePayload(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->kind, PayloadKind::Exfiltrate);
    EXPECT_EQ(back->cve, p.cve);
    EXPECT_EQ(back->leakAddr, p.leakAddr);
    EXPECT_EQ(back->leakLen, p.leakLen);
    EXPECT_EQ(back->dest, p.dest);
    EXPECT_EQ(back->forkCount, p.forkCount);
}

TEST(Payload, GarbageIsNotAPayload)
{
    EXPECT_FALSE(decodePayload({}).has_value());
    EXPECT_FALSE(decodePayload({1, 2, 3}).has_value());
    std::vector<uint8_t> pixels = synthPixels(2, 2, 1, 1);
    EXPECT_FALSE(decodePayload(pixels).has_value());
}

TEST(Payload, KindNames)
{
    EXPECT_STREQ(payloadKindName(PayloadKind::OobWrite), "oob-write");
    EXPECT_STREQ(payloadKindName(PayloadKind::Dos), "dos");
    EXPECT_STREQ(payloadKindName(PayloadKind::ForkBomb), "fork-bomb");
}

TEST(ApiTypes, ClassifyFlowOpsRules)
{
    using K = StorageKind;
    EXPECT_EQ(classifyFlowOps({{K::Mem, K::File, false}}),
              ApiType::Loading);
    EXPECT_EQ(classifyFlowOps({{K::Mem, K::Dev, false}}),
              ApiType::Loading);
    EXPECT_EQ(classifyFlowOps({{K::Mem, K::Mem, false}}),
              ApiType::Processing);
    EXPECT_EQ(classifyFlowOps({{K::File, K::Mem, false}}),
              ApiType::Storing);
    EXPECT_EQ(classifyFlowOps({{K::Gui, K::Mem, false}}),
              ApiType::Visualizing);
    EXPECT_EQ(classifyFlowOps({{K::Mem, K::Gui, false}}),
              ApiType::Visualizing);
    // GUI dominates mixed op lists.
    EXPECT_EQ(classifyFlowOps({{K::Mem, K::Mem, false},
                               {K::Gui, K::Mem, false}}),
              ApiType::Visualizing);
    EXPECT_EQ(classifyFlowOps({}), ApiType::Unknown);
}

TEST(ApiTypes, Names)
{
    EXPECT_STREQ(apiTypeName(ApiType::Loading), "Data Loading");
    EXPECT_STREQ(apiTypeShortName(ApiType::Storing), "ST");
    EXPECT_STREQ(storageKindName(StorageKind::Dev), "DEV");
    EXPECT_EQ(flowOpName({StorageKind::Mem, StorageKind::File, false}),
              "W(MEM, R(FILE))");
    EXPECT_STREQ(frameworkName(Framework::OpenCV), "OpenCV");
}

} // namespace
} // namespace freepart::fw
