#include "fw/invoker.hh"

#include <algorithm>
#include <cstring>

#include "fw/image_format.hh"
#include "util/logging.hh"

namespace freepart::fw {

namespace {

using ipc::Value;
using ipc::ValueList;

/**
 * Set out[j] = ((start + j) % 23) * 0.125f - 1.f for j < n: one period,
 * then copies of what is already set, a whole number of periods each
 * but the last.
 */
void
fillPeriodic(float *out, size_t n, uint64_t start)
{
    constexpr size_t kPeriod = 23;
    size_t done = std::min(n, kPeriod);
    for (size_t j = 0; j < done; ++j)
        out[j] = static_cast<float>((start % kPeriod + j) % kPeriod) *
                     0.125f -
                 1.f;
    while (done < n) {
        size_t chunk = std::min(done, n - done);
        std::memcpy(out + done, out, chunk * sizeof(float));
        done += chunk;
    }
}

} // namespace

void
seedFixtureFiles(osim::Kernel &kernel, const TestFixture &fixture)
{
    std::vector<uint8_t> pixels = synthPixels(
        fixture.rows, fixture.cols, fixture.channels, 1);
    kernel.vfs().putFile(fixture.imagePath,
                         encodeImageFile(fixture.rows, fixture.cols,
                                         fixture.channels, pixels));

    // Model file: a flat 256-element tensor.
    uint32_t rank = 1;
    uint32_t dim = 256;
    std::vector<uint8_t> model(sizeof(uint32_t) * 2 +
                               dim * sizeof(float));
    std::memcpy(model.data(), &rank, 4);
    std::memcpy(model.data() + 4, &dim, 4);
    for (uint32_t i = 0; i < dim; ++i) {
        float v = static_cast<float>(i % 17) * 0.25f;
        std::memcpy(model.data() + 8 + i * sizeof(float), &v,
                    sizeof(float));
    }
    kernel.vfs().putFile(fixture.modelPath, model);

    const char *csv = "id,score\n1,90\n2,85\n3,77\n";
    kernel.vfs().putFile(
        fixture.csvPath,
        std::vector<uint8_t>(csv, csv + std::strlen(csv)));
}

Invoker::Invoker(osim::Kernel &kernel, ObjectStore &store,
                 uint32_t partition, const TestFixture &fixture)
    : kernel(kernel), store(store), partition(partition),
      fixture(fixture)
{
}

ipc::Value
Invoker::makeMatArg(uint32_t rows, uint32_t cols, uint32_t ch,
                    uint64_t seed)
{
    osim::AddressSpace &space = kernel.process(store.pid()).space();
    MatDesc mat;
    mat.rows = rows;
    mat.cols = cols;
    mat.channels = ch;
    mat.addr = space.alloc(mat.byteLen(), osim::PermRW, "fixture-mat");
    std::vector<uint8_t> pixels = synthPixels(rows, cols, ch, seed);
    space.write(mat.addr, pixels.data(), pixels.size());
    return refValue(partition, store.putMat(mat, "fixture-mat"));
}

ipc::Value
Invoker::makeTensorArg(std::vector<uint32_t> shape, uint64_t seed)
{
    osim::AddressSpace &space = kernel.process(store.pid()).space();
    TensorDesc t;
    t.shape = std::move(shape);
    t.addr = space.alloc(t.byteLen() ? t.byteLen() : 1, osim::PermRW,
                         "fixture-tensor");
    // Element i is ((i + seed) % 23) * 0.125f - 1.f, with i + seed
    // taken mod 2^64. 2^64 is not a multiple of 23, so the period
    // restarts at residue 0 where i + seed wraps.
    std::vector<float> values(t.elements());
    size_t wrap = std::min<uint64_t>(values.size(), 0 - seed);
    fillPeriodic(values.data(), wrap, seed);
    fillPeriodic(values.data() + wrap, values.size() - wrap, 0);
    tensorWrite(space, t, values);
    return refValue(partition, store.putTensor(t, "fixture-tensor"));
}

bool
Invoker::canInvoke(const ApiDescriptor &api) const
{
    return api.implemented();
}

ipc::ValueList
Invoker::prepareArgs(const ApiDescriptor &api, uint64_t seed)
{
    const std::string &n = api.name;
    uint32_t r = fixture.rows, c = fixture.cols, ch = fixture.channels;

    // --- Special-cased signatures -------------------------------------
    if (n == "cv2.imread" || n == "cv2.CascadeClassifier.load" ||
        n == "cv2.readOpticalFlow" || n == "pil.Image.open")
        return {Value(fixture.imagePath)};
    if (n == "cv2.imdecode") {
        std::vector<uint8_t> file = encodeImageFile(
            r, c, ch, synthPixels(r, c, ch, seed));
        return {Value(std::move(file))};
    }
    if (n == "cv2.VideoCapture.read" || n == "cv2.pollKey" ||
        n == "cv2.getMouseWheelDelta" || n == "cv2.destroyAllWindows")
        return {};
    if (n == "cv2.namedWindow" || n == "cv2.moveWindow" ||
        n == "cv2.setWindowTitle")
        return {Value(std::string("win"))};
    if (n == "cv2.imshow" || n == "gtk.Window.show" ||
        n == "plt.show")
        return {Value(std::string("win")), makeMatArg(r, c, ch, seed)};
    if (n == "cv2.imwrite" || n == "cv2.writeOpticalFlow" ||
        n == "pil.Image.save" || n == "plt.savefig" ||
        n == "cv2.VideoWriter.write")
        return {Value(std::string("/out/") + n + ".fpim"),
                makeMatArg(r, c, ch, seed)};
    if (n == "cv2.Canny")
        return {makeMatArg(r, c, 1, seed), Value(uint64_t(50)),
                Value(uint64_t(150))};
    if (n == "cv2.resize" || n == "pil.Image.resize")
        return {makeMatArg(r, c, ch, seed), Value(uint64_t(r / 2)),
                Value(uint64_t(c / 2))};
    if (n == "cv2.threshold")
        return {makeMatArg(r, c, 1, seed), Value(uint64_t(128)),
                Value(uint64_t(255))};
    if (n == "cv2.equalizeHist" || n == "cv2.findContours" ||
        n == "cv2.Sobel" ||
        n == "cv2.CascadeClassifier.detectMultiScale")
        return {makeMatArg(r, c, 1, seed)};
    if (n == "cv2.warpPerspective" || n == "cv2.filter2D") {
        ValueList args = {makeMatArg(r, c, ch, seed)};
        const double identity[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
        const double sharpen[9] = {0, -1, 0, -1, 5, -1, 0, -1, 0};
        const double *k =
            n == "cv2.filter2D" ? sharpen : identity;
        for (int i = 0; i < 9; ++i)
            args.emplace_back(k[i]);
        return args;
    }
    if (n == "cv2.matchTemplate")
        return {makeMatArg(r, c, 1, seed),
                makeMatArg(r / 4, c / 4, 1, seed + 1)};
    if (n == "cv2.rectangle")
        return {makeMatArg(r, c, ch, seed), Value(uint64_t(4)),
                Value(uint64_t(4)), Value(uint64_t(r / 2)),
                Value(uint64_t(c / 2)), Value(uint64_t(255))};
    if (n == "cv2.putText")
        return {makeMatArg(r, c, ch, seed),
                Value(std::string("SCORE 98")), Value(uint64_t(4)),
                Value(uint64_t(4)), Value(uint64_t(255))};
    if (n == "cv2.addWeighted")
        return {makeMatArg(r, c, ch, seed),
                makeMatArg(r, c, ch, seed + 1), Value(0.5),
                Value(0.5)};
    if (n == "cv2.absdiff")
        return {makeMatArg(r, c, ch, seed),
                makeMatArg(r, c, ch, seed + 1)};
    if (n == "cv2.createMemStorage" || n == "cv2.alloc")
        return {};
    if (n == "cv2.copyTo")
        return {makeMatArg(r, c, ch, seed)};
    if (n == "pd.read_csv" || n == "json.load")
        return {Value(fixture.csvPath)};
    if (n == "pd.DataFrame.to_csv" || n == "json.dump") {
        // Needs a bytes object argument: stage a small CSV blob.
        osim::AddressSpace &space =
            kernel.process(store.pid()).space();
        const char *csv = "a,b\n1,2\n";
        osim::Addr addr = space.alloc(8, osim::PermRW, "csv-out");
        space.write(addr, csv, 8);
        uint64_t id = store.putBytes(addr, 8, "csv-out");
        return {Value(std::string("/out/results.csv")),
                refValue(partition, id)};
    }
    if (n == "gtk.RecentManager.add")
        return {Value(std::string("/data/recent.fpim"))};
    if (n == "tf.keras.utils.get_file")
        return {Value(std::string("http://example.com/weights"))};
    if (n == "torch.tensor") {
        std::vector<uint8_t> blob(64 * sizeof(float));
        for (size_t i = 0; i < 64; ++i) {
            float v = static_cast<float>(i + seed);
            std::memcpy(blob.data() + i * sizeof(float), &v,
                        sizeof(float));
        }
        return {Value(std::move(blob))};
    }
    if (n == "torch.nn.Conv2d" || n == "tf.nn.conv2d" ||
        n == "tf.nn.conv3d" || n == "caffe.Net.Forward")
        return {makeTensorArg({3, fixture.tensorDim,
                               fixture.tensorDim},
                              seed),
                makeTensorArg({4, 3, 3, 3}, seed + 1)};
    if (n == "torch.nn.MaxPool2d" || n == "tf.nn.max_pool" ||
        n == "tf.nn.avg_pool")
        return {makeTensorArg({3, fixture.tensorDim,
                               fixture.tensorDim},
                              seed)};
    if (n == "torch.relu" || n == "torch.softmax" ||
        n == "np.argmax" || n == "torch.argmax" || n == "np.mean")
        return {makeTensorArg(
            {fixture.tensorDim * fixture.tensorDim}, seed)};
    if (n == "torch.nn.Linear")
        return {makeTensorArg({32}, seed),
                makeTensorArg({10, 32}, seed + 1)};
    if (n == "caffe.Net.Backward")
        return {makeTensorArg({64}, seed),
                makeTensorArg({64}, seed + 1), Value(0.01)};
    if (n == "tf.estimator.DNNClassifier.train")
        return {makeTensorArg({64}, seed),
                makeTensorArg({64}, seed + 1)};

    // --- Fallbacks by declared type ------------------------------------
    switch (api.declaredType) {
      case ApiType::Loading:
        return {Value(fixture.modelPath)};
      case ApiType::Storing:
        return {Value(std::string("/out/") + n + ".bin"),
                makeTensorArg({64}, seed)};
      case ApiType::Processing:
      case ApiType::Neutral:
        return {makeMatArg(r, c, ch, seed)};
      case ApiType::Visualizing:
        return {Value(std::string("win")),
                makeMatArg(r, c, ch, seed)};
      case ApiType::Unknown:
        break;
    }
    util::fatal("Invoker: no argument plan for API '%s'", n.c_str());
}

} // namespace freepart::fw
