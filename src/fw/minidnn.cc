/**
 * @file
 * MiniDNN: the Caffe / PyTorch / TensorFlow / NumPy analogue. Real
 * (naive) tensor kernels — convolution, pooling, activations, fully
 * connected layers, SGD steps — plus model (de)serialization, with
 * the same registry metadata scheme as MiniCV. The TensorFlow
 * `utils.get_file` body implements the download->file->memory pattern
 * whose IR the analysis module reduces via the "memory copy via
 * files" rule (§4.2.1).
 */

#include <algorithm>
#include <cmath>
#include <cstring>

#include "fw/api_registry.hh"
#include "fw/vuln.hh"
#include "util/logging.hh"

namespace freepart::fw {

namespace {

using ipc::Value;
using ipc::ValueList;
using osim::Syscall;

// ---- Tensor compute kernels -----------------------------------------

/**
 * The conv2d loop nest, over a row of output accumulators, one kernel
 * row (ic, kr) at a time: each output still adds its products in
 * ic -> kr -> kc order, as a per-pixel loop would, so the float sums
 * are the same. K = 3 fixes the kernel width, so its taps sit in
 * locals and the size_t-indexed column loop vectorizes; K = 0 is the
 * generic body for the run-time width k.
 */
template <uint32_t K>
void
conv2dRows(const float *in, uint32_t c, uint32_t h, uint32_t wd,
           const float *w, uint32_t o, uint32_t k, float *out)
{
    static_assert(K == 0 || K == 3);
    const size_t oh = h - k + 1, ow = wd - k + 1;
    for (size_t oc = 0; oc < o; ++oc)
        for (size_t r = 0; r < oh; ++r) {
            float *acc = out + (oc * oh + r) * ow;
            for (size_t ic = 0; ic < c; ++ic)
                for (size_t kr = 0; kr < k; ++kr) {
                    const float *row = in + (ic * h + r + kr) * wd;
                    const float *taps = w + ((oc * c + ic) * k + kr) * k;
                    if constexpr (K == 3) {
                        const float t0 = taps[0], t1 = taps[1],
                                    t2 = taps[2];
                        for (size_t cc = 0; cc < ow; ++cc) {
                            float sum = acc[cc];
                            sum += row[cc] * t0;
                            sum += row[cc + 1] * t1;
                            sum += row[cc + 2] * t2;
                            acc[cc] = sum;
                        }
                    } else {
                        for (size_t cc = 0; cc < ow; ++cc) {
                            float sum = acc[cc];
                            for (uint32_t kc = 0; kc < k; ++kc)
                                sum += row[cc + kc] * taps[kc];
                            acc[cc] = sum;
                        }
                    }
                }
        }
}

/** conv2d: input {C,H,W}, weight {O,C,K,K} -> output {O,H-K+1,W-K+1}. */
std::vector<float>
conv2d(const std::vector<float> &in, const std::vector<uint32_t> &ishp,
       const std::vector<float> &w, const std::vector<uint32_t> &wshp,
       std::vector<uint32_t> &oshp)
{
    if (ishp.size() != 3 || wshp.size() != 4 || ishp[0] != wshp[1] ||
        wshp[2] != wshp[3])
        util::fatal("conv2d: bad shapes");
    uint32_t c = ishp[0], h = ishp[1], wd = ishp[2];
    uint32_t o = wshp[0], k = wshp[2];
    if (k > h || k > wd)
        util::fatal("conv2d: kernel larger than input");
    uint32_t oh = h - k + 1, ow = wd - k + 1;
    oshp = {o, oh, ow};
    std::vector<float> out(static_cast<size_t>(o) * oh * ow, 0.f);
    if (k == 3)
        conv2dRows<3>(in.data(), c, h, wd, w.data(), o, k, out.data());
    else
        conv2dRows<0>(in.data(), c, h, wd, w.data(), o, k, out.data());
    return out;
}

/** 2x2 stride-2 pooling; TakeMax selects max vs mean. */
template <bool TakeMax>
std::vector<float>
pool2x2(const std::vector<float> &in, const std::vector<uint32_t> &ishp,
        std::vector<uint32_t> &oshp)
{
    if (ishp.size() != 3)
        util::fatal("pool2x2: expects rank-3 input");
    uint32_t c = ishp[0], h = ishp[1], w = ishp[2];
    uint32_t oh = h / 2, ow = w / 2;
    oshp = {c, oh, ow};
    std::vector<float> out(static_cast<size_t>(c) * oh * ow);
    for (uint32_t ic = 0; ic < c; ++ic)
        for (uint32_t r = 0; r < oh; ++r)
            for (uint32_t cc = 0; cc < ow; ++cc) {
                float v[4] = {
                    in[(static_cast<size_t>(ic) * h + 2 * r) * w +
                       2 * cc],
                    in[(static_cast<size_t>(ic) * h + 2 * r) * w +
                       2 * cc + 1],
                    in[(static_cast<size_t>(ic) * h + 2 * r + 1) * w +
                       2 * cc],
                    in[(static_cast<size_t>(ic) * h + 2 * r + 1) * w +
                       2 * cc + 1]};
                float res;
                if (TakeMax)
                    res = std::max(std::max(v[0], v[1]),
                                   std::max(v[2], v[3]));
                else
                    res = (v[0] + v[1] + v[2] + v[3]) / 4.f;
                out[(static_cast<size_t>(ic) * oh + r) * ow + cc] =
                    res;
            }
    return out;
}

/** Fully connected: weight {O,I} x input {I} -> {O}. */
std::vector<float>
fullyConnected(const std::vector<float> &in,
               const std::vector<float> &w,
               const std::vector<uint32_t> &wshp)
{
    if (wshp.size() != 2 || wshp[1] != in.size())
        util::fatal("fc: bad shapes (%zu inputs)", in.size());
    std::vector<float> out(wshp[0], 0.f);
    for (uint32_t o = 0; o < wshp[0]; ++o)
        for (uint32_t i = 0; i < wshp[1]; ++i)
            out[o] += w[static_cast<size_t>(o) * wshp[1] + i] * in[i];
    return out;
}

void
softmaxInPlace(std::vector<float> &v)
{
    if (v.empty())
        return;
    float mx = *std::max_element(v.begin(), v.end());
    float sum = 0.f;
    for (float &x : v) {
        x = std::exp(x - mx);
        sum += x;
    }
    for (float &x : v)
        x /= sum;
}

// ---- Body helpers -----------------------------------------------------

const TensorDesc &
getTensor(ExecContext &ctx, const ValueList &args, size_t i)
{
    return ctx.store().tensor(argObjectId(args, i));
}

ValueList
retTensor(ExecContext &ctx, const TensorDesc &t,
          const std::string &label)
{
    uint64_t id = ctx.store().putTensor(t, label);
    return {refValue(ctx.partition(), id)};
}

TensorDesc
makeTensor(ExecContext &ctx, const std::vector<uint32_t> &shape,
           const std::vector<float> &values, const std::string &label)
{
    TensorDesc t = ctx.allocTensor(shape, label);
    tensorWrite(ctx.space(), t, values);
    return t;
}

/** Scan leading tensor bytes for an embedded payload (DP attacks). */
void
checkTensorExploit(ExecContext &ctx, const ApiDescriptor &desc,
                   const TensorDesc &t)
{
    if (desc.cves.empty() || t.byteLen() == 0)
        return;
    size_t probe = std::min<size_t>(t.byteLen(), 512);
    std::vector<uint8_t> head(probe);
    ctx.space().read(t.addr, head.data(), probe);
    maybeTriggerExploit(ctx, desc.cves, head);
}

/** Read a whole file via syscalls (duplicated from minicv on
 *  purpose: each framework ships its own loader). */
std::vector<uint8_t>
dnnLoadFile(ExecContext &ctx, const std::string &path)
{
    osim::Kernel &kernel = ctx.kernel();
    osim::Process &proc = ctx.proc();
    osim::Fd fd = kernel.sysOpen(proc, path, false);
    size_t size = kernel.sysFstat(proc, fd);
    kernel.sysBrk(proc);
    osim::Addr staging = ctx.space().alloc(size ? size : 1,
                                           osim::PermRW, "staging");
    size_t got = 0;
    while (got < size) {
        size_t n = kernel.sysRead(
            proc, fd, staging + got,
            std::min<size_t>(size - got, 1 << 16));
        if (n == 0)
            break;
        got += n;
    }
    kernel.sysClose(proc, fd);
    std::vector<uint8_t> bytes(got);
    ctx.space().read(staging, bytes.data(), got);
    ctx.space().unmap(staging);
    return bytes;
}

void
dnnStoreFile(ExecContext &ctx, const std::string &path,
             const std::vector<uint8_t> &bytes)
{
    osim::Kernel &kernel = ctx.kernel();
    osim::Process &proc = ctx.proc();
    osim::Fd fd = kernel.sysOpen(proc, path, true);
    osim::Addr staging = ctx.space().alloc(
        bytes.size() ? bytes.size() : 1, osim::PermRW, "staging");
    ctx.space().write(staging, bytes.data(), bytes.size());
    kernel.sysWrite(proc, fd, staging, bytes.size());
    kernel.sysClose(proc, fd);
    ctx.space().unmap(staging);
}

/**
 * Model-file decode: header-sized tensor followed by an optional
 * trailing payload (StegoNet-style model trojans live there, A.7).
 */
TensorDesc
decodeModelFile(ExecContext &ctx, const ApiDescriptor &desc,
                const std::vector<uint8_t> &bytes,
                const std::string &label)
{
    TensorDesc header = parseTensorHeader(bytes, "model file");
    size_t body = sizeof(uint32_t) * (1 + header.shape.size()) +
                  header.byteLen();
    std::vector<uint8_t> trailer(
        bytes.begin() + static_cast<ptrdiff_t>(body), bytes.end());
    maybeTriggerExploit(ctx, desc.cves, trailer);
    TensorDesc t = tensorFromBytes(ctx.space(), bytes, label);
    ctx.traceOp(StorageKind::Mem, StorageKind::File);
    ctx.chargeCompute(t.elements());
    return t;
}

FlowOp
dMemMem()
{
    return {StorageKind::Mem, StorageKind::Mem, false};
}

FlowOp
dMemFile()
{
    return {StorageKind::Mem, StorageKind::File, false};
}

FlowOp
dMemDev()
{
    return {StorageKind::Mem, StorageKind::Dev, false};
}

FlowOp
dFileMem()
{
    return {StorageKind::File, StorageKind::Mem, false};
}

const std::set<Syscall> kDnnLoadSyscalls = {
    Syscall::Openat, Syscall::Close, Syscall::Brk, Syscall::Fstat,
    Syscall::Read, Syscall::Lseek, Syscall::Mmap};
const std::set<Syscall> kDnnComputeSyscalls = {
    Syscall::Brk, Syscall::Mmap, Syscall::Futex,
    Syscall::ClockGettime, Syscall::Getrandom, Syscall::SchedYield};
const std::set<Syscall> kDnnStoreSyscalls = {
    Syscall::Openat, Syscall::Write, Syscall::Close, Syscall::Mkdir,
    Syscall::Umask, Syscall::Unlink, Syscall::Lstat};

/** Register a model-load API (torch.load-style). */
void
addModelLoad(ApiRegistry &registry, const std::string &name,
             Framework fw, std::vector<std::string> cves = {})
{
    ApiDescriptor api;
    api.name = name;
    api.framework = fw;
    api.declaredType = ApiType::Loading;
    api.ir = {dMemFile()};
    api.syscalls = kDnnLoadSyscalls;
    api.cves = std::move(cves);
    api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                const ValueList &args) -> ValueList {
        std::vector<uint8_t> bytes =
            dnnLoadFile(ctx, args[0].asStr());
        TensorDesc t = decodeModelFile(ctx, desc, bytes,
                                       "model:" + args[0].asStr());
        return retTensor(ctx, t, "model");
    };
    registry.add(std::move(api));
}

/** Register a model-save API (torch.save-style). */
void
addModelSave(ApiRegistry &registry, const std::string &name,
             Framework fw)
{
    ApiDescriptor api;
    api.name = name;
    api.framework = fw;
    api.declaredType = ApiType::Storing;
    api.ir = {dFileMem()};
    api.syscalls = kDnnStoreSyscalls;
    api.fn = [](ExecContext &ctx, const ApiDescriptor &,
                const ValueList &args) -> ValueList {
        const std::string &path = args[0].asStr();
        const TensorDesc &t = getTensor(ctx, args, 1);
        std::vector<uint8_t> bytes = tensorToBytes(ctx.space(), t);
        dnnStoreFile(ctx, path, bytes);
        ctx.traceOp(StorageKind::File, StorageKind::Mem);
        return {Value(static_cast<uint64_t>(bytes.size()))};
    };
    registry.add(std::move(api));
}

/** Register conv2d under a given name (shared by tf/torch/caffe). */
void
addConv(ApiRegistry &registry, const std::string &name, Framework fw,
        std::vector<std::string> cves = {})
{
    ApiDescriptor api;
    api.name = name;
    api.framework = fw;
    api.declaredType = ApiType::Processing;
    api.ir = {dMemMem()};
    api.syscalls = kDnnComputeSyscalls;
    api.cves = std::move(cves);
    api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                const ValueList &args) -> ValueList {
        const TensorDesc &in = getTensor(ctx, args, 0);
        const TensorDesc &w = getTensor(ctx, args, 1);
        checkTensorExploit(ctx, desc, in);
        std::vector<uint32_t> oshp;
        std::vector<float> out =
            conv2d(tensorRead(ctx.space(), in), in.shape,
                   tensorRead(ctx.space(), w), w.shape, oshp);
        ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
        ctx.chargeCompute(out.size() * w.shape[2] * w.shape[3] *
                          in.shape[0]);
        return retTensor(ctx, makeTensor(ctx, oshp, out, desc.name),
                         desc.name);
    };
    registry.add(std::move(api));
}

/** Register a 2x2 pooling API. */
void
addPool(ApiRegistry &registry, const std::string &name, Framework fw,
        bool take_max, std::vector<std::string> cves = {})
{
    ApiDescriptor api;
    api.name = name;
    api.framework = fw;
    api.declaredType = ApiType::Processing;
    api.ir = {dMemMem()};
    api.syscalls = kDnnComputeSyscalls;
    api.cves = std::move(cves);
    api.fn = [take_max](ExecContext &ctx, const ApiDescriptor &desc,
                        const ValueList &args) -> ValueList {
        const TensorDesc &in = getTensor(ctx, args, 0);
        checkTensorExploit(ctx, desc, in);
        std::vector<uint32_t> oshp;
        std::vector<float> data = tensorRead(ctx.space(), in);
        std::vector<float> out =
            take_max ? pool2x2<true>(data, in.shape, oshp)
                     : pool2x2<false>(data, in.shape, oshp);
        ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
        ctx.chargeCompute(data.size());
        return retTensor(ctx, makeTensor(ctx, oshp, out, desc.name),
                         desc.name);
    };
    registry.add(std::move(api));
}

} // namespace

void
registerMiniDnn(ApiRegistry &registry)
{
    // ================= NumPy ==========================================

    addModelLoad(registry, "np.load", Framework::NumPy);
    addModelSave(registry, "np.save", Framework::NumPy);

    {
        ApiDescriptor api;
        api.name = "np.argmax";
        api.framework = Framework::NumPy;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                    const ValueList &args) -> ValueList {
            const TensorDesc &t = getTensor(ctx, args, 0);
            checkTensorExploit(ctx, desc, t);
            std::vector<float> v = tensorRead(ctx.space(), t);
            size_t best = 0;
            for (size_t i = 1; i < v.size(); ++i)
                if (v[i] > v[best])
                    best = i;
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            ctx.chargeCompute(v.size());
            return {Value(static_cast<uint64_t>(best))};
        };
        registry.add(std::move(api));
    }

    {
        ApiDescriptor api;
        api.name = "np.mean";
        api.framework = Framework::NumPy;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                    const ValueList &args) -> ValueList {
            const TensorDesc &t = getTensor(ctx, args, 0);
            checkTensorExploit(ctx, desc, t);
            std::vector<float> v = tensorRead(ctx.space(), t);
            double sum = 0;
            for (float x : v)
                sum += x;
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            ctx.chargeCompute(v.size());
            return {Value(v.empty() ? 0.0 : sum / v.size())};
        };
        registry.add(std::move(api));
    }

    // ================= Caffe ==========================================

    addModelLoad(registry, "caffe.ReadProtoFromTextFile",
                 Framework::Caffe);
    addModelLoad(registry, "caffe.Net.CopyTrainedLayersFrom",
                 Framework::Caffe);
    addModelSave(registry, "caffe.WriteProtoToTextFile",
                 Framework::Caffe);
    addModelSave(registry, "caffe.hdf5_save_string",
                 Framework::Caffe);
    addConv(registry, "caffe.Net.Forward", Framework::Caffe);

    {
        // Backward: stateful SGD step on the weights. The updated
        // weights are *internal state* of the net — the A.2.4
        // checkpoint/restore machinery exists for APIs like this.
        ApiDescriptor api;
        api.name = "caffe.Net.Backward";
        api.framework = Framework::Caffe;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.stateful = true;
        api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                    const ValueList &args) -> ValueList {
            // args: weights, gradient, learning rate.
            const TensorDesc &w = getTensor(ctx, args, 0);
            const TensorDesc &g = getTensor(ctx, args, 1);
            checkTensorExploit(ctx, desc, w);
            float lr = static_cast<float>(args[2].asF64());
            std::vector<float> wv = tensorRead(ctx.space(), w);
            std::vector<float> gv = tensorRead(ctx.space(), g);
            if (wv.size() != gv.size())
                util::fatal("Backward: grad shape mismatch");
            for (size_t i = 0; i < wv.size(); ++i)
                wv[i] -= lr * gv[i];
            // In-place update of the weight tensor (the state).
            tensorWrite(ctx.space(), w, wv);
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            ctx.chargeCompute(wv.size() * 2);
            return {args[0]};
        };
        registry.add(std::move(api));
    }

    // ================= PyTorch ========================================

    addModelLoad(registry, "torch.load", Framework::PyTorch,
                 {"SIM-STEGONET"});
    addModelLoad(registry, "torch.hub.load", Framework::PyTorch);
    addModelLoad(registry, "torch.utils.model_zoo.load_url",
                 Framework::PyTorch);
    addModelLoad(registry, "torchvision.datasets.MNIST",
                 Framework::PyTorch);
    addModelLoad(registry, "torch.utils.data.DataLoader",
                 Framework::PyTorch);
    addModelSave(registry, "torch.save", Framework::PyTorch);
    addModelSave(registry,
                 "torch.utils.tensorboard.SummaryWriter.add_scalar",
                 Framework::PyTorch);
    addConv(registry, "torch.nn.Conv2d", Framework::PyTorch);
    addPool(registry, "torch.nn.MaxPool2d", Framework::PyTorch, true);

    {
        ApiDescriptor api;
        api.name = "torch.relu";
        api.framework = Framework::PyTorch;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                    const ValueList &args) -> ValueList {
            const TensorDesc &t = getTensor(ctx, args, 0);
            checkTensorExploit(ctx, desc, t);
            std::vector<float> v = tensorRead(ctx.space(), t);
            for (float &x : v)
                x = std::max(x, 0.f);
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            ctx.chargeCompute(v.size());
            return retTensor(ctx, makeTensor(ctx, t.shape, v, "relu"),
                             "relu");
        };
        registry.add(std::move(api));
    }

    {
        ApiDescriptor api;
        api.name = "torch.softmax";
        api.framework = Framework::PyTorch;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                    const ValueList &args) -> ValueList {
            const TensorDesc &t = getTensor(ctx, args, 0);
            checkTensorExploit(ctx, desc, t);
            std::vector<float> v = tensorRead(ctx.space(), t);
            softmaxInPlace(v);
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            ctx.chargeCompute(v.size() * 3);
            return retTensor(ctx,
                             makeTensor(ctx, t.shape, v, "softmax"),
                             "softmax");
        };
        registry.add(std::move(api));
    }

    {
        ApiDescriptor api;
        api.name = "torch.nn.Linear";
        api.framework = Framework::PyTorch;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                    const ValueList &args) -> ValueList {
            const TensorDesc &in = getTensor(ctx, args, 0);
            const TensorDesc &w = getTensor(ctx, args, 1);
            checkTensorExploit(ctx, desc, in);
            std::vector<float> out =
                fullyConnected(tensorRead(ctx.space(), in),
                               tensorRead(ctx.space(), w), w.shape);
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            ctx.chargeCompute(w.elements());
            return retTensor(
                ctx,
                makeTensor(ctx, {w.shape[0]}, out, "linear"),
                "linear");
        };
        registry.add(std::move(api));
    }

    {
        // torch.tensor: type-neutral constructor from a raw blob.
        ApiDescriptor api;
        api.name = "torch.tensor";
        api.framework = Framework::PyTorch;
        api.declaredType = ApiType::Processing;
        api.typeNeutral = true;
        api.ir = {dMemMem()};
        api.syscalls = {Syscall::Brk, Syscall::Mmap};
        api.fn = [](ExecContext &ctx, const ApiDescriptor &,
                    const ValueList &args) -> ValueList {
            const auto &blob = args[0].asBlob();
            size_t n = blob.size() / sizeof(float);
            std::vector<float> v(n);
            std::memcpy(v.data(), blob.data(), n * sizeof(float));
            TensorDesc t = makeTensor(
                ctx, {static_cast<uint32_t>(n)}, v, "tensor");
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            return retTensor(ctx, t, "tensor");
        };
        registry.add(std::move(api));
    }

    {
        ApiDescriptor api;
        api.name = "torch.argmax";
        api.framework = Framework::PyTorch;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.fn = registry.require("np.argmax").fn;
        registry.add(std::move(api));
    }

    // ================= TensorFlow =====================================

    {
        // tf.keras.utils.get_file: the "memory copy via files" API of
        // §4.2.1 — download (DEV->MEM), spill (MEM->FILE), reload
        // (FILE->MEM). The analysis reduces this chain to a plain
        // loading pattern.
        ApiDescriptor api;
        api.name = "tf.keras.utils.get_file";
        api.framework = Framework::TensorFlow;
        api.declaredType = ApiType::Loading;
        api.ir = {dMemDev(), dFileMem(), dMemFile()};
        api.syscalls = {Syscall::Socket,  Syscall::Connect,
                        Syscall::Recvfrom, Syscall::Openat,
                        Syscall::Write,   Syscall::Read,
                        Syscall::Close,   Syscall::Fstat,
                        Syscall::Brk};
        api.fn = [](ExecContext &ctx, const ApiDescriptor &,
                    const ValueList &args) -> ValueList {
            const std::string &url = args[0].asStr();
            osim::Kernel &kernel = ctx.kernel();
            osim::Process &proc = ctx.proc();
            // "Download": deterministic bytes derived from the URL.
            // The socket is connected once and cached, so connect()
            // is genuinely an init-only syscall (§4.4.1).
            osim::Fd sock = ctx.netFd(url);
            kernel.sysRecvfrom(proc, sock, 0, 0);
            std::vector<uint8_t> body(2048);
            for (size_t i = 0; i < body.size(); ++i)
                body[i] = static_cast<uint8_t>(
                    (i * 31 + url.size() * 7) & 0xff);
            ctx.traceOp(StorageKind::Mem, StorageKind::Dev);
            // Spill to a temp file...
            std::string tmp = "/tmp/get_file.cache";
            dnnStoreFile(ctx, tmp, body);
            ctx.traceOp(StorageKind::File, StorageKind::Mem);
            // ...and read it back: the chain the reducer collapses.
            std::vector<uint8_t> back = dnnLoadFile(ctx, tmp);
            ctx.traceOp(StorageKind::Mem, StorageKind::File);
            osim::Addr addr = ctx.space().alloc(
                back.size(), osim::PermRW, "get_file");
            ctx.space().write(addr, back.data(), back.size());
            uint64_t id =
                ctx.store().putBytes(addr, back.size(), "get_file");
            ctx.chargeCompute(back.size());
            return {refValue(ctx.partition(), id)};
        };
        registry.add(std::move(api));
    }

    addModelLoad(registry,
                 "tf.keras.preprocessing.image_dataset_from_directory",
                 Framework::TensorFlow);
    addConv(registry, "tf.nn.conv2d", Framework::TensorFlow,
            {"CVE-2021-41198"});
    addConv(registry, "tf.nn.conv3d", Framework::TensorFlow,
            {"CVE-2021-29513"});
    addPool(registry, "tf.nn.max_pool", Framework::TensorFlow, true,
            {"CVE-2021-29618"});
    addPool(registry, "tf.nn.avg_pool", Framework::TensorFlow, false,
            {"CVE-2021-37661"});
    addModelSave(registry, "tf.keras.preprocessing.image.save_img",
                 Framework::TensorFlow);
    addModelSave(registry, "tf.keras.Model.save_weights",
                 Framework::TensorFlow);

    {
        // DNNClassifier.train: the canonical stateful DP API the
        // paper checkpoints (A.2.4). One SGD epoch over synthetic
        // labels derived from the data tensor.
        ApiDescriptor api;
        api.name = "tf.estimator.DNNClassifier.train";
        api.framework = Framework::TensorFlow;
        api.declaredType = ApiType::Processing;
        api.ir = {dMemMem()};
        api.syscalls = kDnnComputeSyscalls;
        api.stateful = true;
        api.fn = [](ExecContext &ctx, const ApiDescriptor &desc,
                    const ValueList &args) -> ValueList {
            const TensorDesc &w = getTensor(ctx, args, 0);
            const TensorDesc &x = getTensor(ctx, args, 1);
            checkTensorExploit(ctx, desc, w);
            std::vector<float> wv = tensorRead(ctx.space(), w);
            std::vector<float> xv = tensorRead(ctx.space(), x);
            // One least-mean-squares step toward matching x's mean.
            double mean = 0;
            for (float v : xv)
                mean += v;
            mean = xv.empty() ? 0 : mean / xv.size();
            for (float &v : wv)
                v += 0.01f * (static_cast<float>(mean) - v);
            tensorWrite(ctx.space(), w, wv);
            ctx.traceOp(StorageKind::Mem, StorageKind::Mem);
            ctx.chargeCompute(wv.size() + xv.size());
            return {args[0]};
        };
        registry.add(std::move(api));
    }
}

} // namespace freepart::fw
