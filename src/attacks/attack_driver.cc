#include "attacks/attack_driver.hh"

#include <cstring>

#include "fw/image_format.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace freepart::attacks {

namespace {

using ipc::Value;

/** Loading APIs whose crafted input is an FPIM image file. */
bool
isImageFileLoader(const std::string &api)
{
    return api == "cv2.imread" || api == "pil.Image.open" ||
           api == "cv2.CascadeClassifier.load" ||
           api == "cv2.readOpticalFlow";
}

/** Loading APIs whose crafted input is a model/tensor file. */
bool
isModelFileLoader(const std::string &api)
{
    return api == "torch.load" || api == "torch.hub.load" ||
           api == "caffe.ReadProtoFromTextFile" ||
           api == "caffe.Net.CopyTrainedLayersFrom" ||
           api == "np.load" ||
           api == "torch.utils.model_zoo.load_url";
}

/** Processing APIs operating on Tensors rather than Mats. */
bool
takesTensor(const std::string &api)
{
    return api.rfind("tf.nn.", 0) == 0 ||
           api.rfind("torch.nn.", 0) == 0 ||
           api == "caffe.Net.Forward" ||
           api == "caffe.Net.Backward" ||
           api == "tf.estimator.DNNClassifier.train";
}

} // namespace

const char *
attackGoalName(AttackGoal goal)
{
    switch (goal) {
      case AttackGoal::CorruptData:
        return "data corruption";
      case AttackGoal::Exfiltrate:
        return "data exfiltration";
      case AttackGoal::Dos:
        return "denial of service";
      case AttackGoal::CodeRewrite:
        return "code rewriting";
      case AttackGoal::ForkBomb:
        return "fork bomb";
    }
    return "?";
}

AttackGoal
goalForPayload(fw::PayloadKind kind)
{
    switch (kind) {
      case fw::PayloadKind::OobWrite:
        return AttackGoal::CorruptData;
      case fw::PayloadKind::Exfiltrate:
        return AttackGoal::Exfiltrate;
      case fw::PayloadKind::Dos:
        return AttackGoal::Dos;
      case fw::PayloadKind::CodeRewrite:
        return AttackGoal::CodeRewrite;
      case fw::PayloadKind::ForkBomb:
        return AttackGoal::ForkBomb;
    }
    return AttackGoal::Dos;
}

bool
AttackOutcome::mitigated(AttackGoal goal) const
{
    if (hostCrashed)
        return false;
    switch (goal) {
      case AttackGoal::CorruptData:
      case AttackGoal::CodeRewrite:
        return !dataCorrupted;
      case AttackGoal::Exfiltrate:
        return !dataLeaked;
      case AttackGoal::Dos:
        return true; // host survived
      case AttackGoal::ForkBomb:
        return childrenSpawned == 0;
    }
    return false;
}

AttackDriver::AttackDriver(core::FreePartRuntime &runtime,
                           const fw::ApiRegistry &registry)
    : runtime(runtime), registry(registry)
{
}

fw::ExploitPayload
AttackDriver::buildPayload(const AttackSpec &spec) const
{
    fw::ExploitPayload payload;
    payload.cve = spec.cve;
    switch (spec.goal) {
      case AttackGoal::CorruptData: {
        payload.kind = fw::PayloadKind::OobWrite;
        payload.targetAddr = spec.targetAddr;
        const char *mark = "HACKED!!";
        size_t n = std::min<size_t>(spec.targetLen ? spec.targetLen
                                                   : 8,
                                    8);
        payload.writeData.assign(mark, mark + n);
        break;
      }
      case AttackGoal::Exfiltrate:
        payload.kind = fw::PayloadKind::Exfiltrate;
        payload.leakAddr = spec.targetAddr;
        payload.leakLen = static_cast<uint32_t>(spec.targetLen);
        payload.dest = spec.exfilDest;
        break;
      case AttackGoal::Dos:
        payload.kind = fw::PayloadKind::Dos;
        break;
      case AttackGoal::CodeRewrite: {
        payload.kind = fw::PayloadKind::CodeRewrite;
        payload.targetAddr = spec.targetAddr;
        const char *shellcode = "\x90\x90\xcc\xcc";
        payload.writeData.assign(shellcode, shellcode + 4);
        break;
      }
      case AttackGoal::ForkBomb:
        payload.kind = fw::PayloadKind::ForkBomb;
        payload.forkCount = 8;
        break;
    }
    return payload;
}

core::ApiResult
AttackDriver::deliverViaFile(const CveRecord &cve,
                             const fw::ExploitPayload &payload)
{
    osim::Kernel &kernel = runtime.kernel();
    if (isImageFileLoader(cve.api)) {
        kernel.vfs().putFile(
            "/attack/crafted.fpim",
            fw::encodeImageFile(16, 16, 1,
                                fw::synthPixels(16, 16, 1, 0),
                                payload));
        return runtime.invoke(
            cve.api, {Value(std::string("/attack/crafted.fpim"))});
    }
    if (cve.api == "cv2.imdecode") {
        std::vector<uint8_t> blob = fw::encodeImageFile(
            16, 16, 1, fw::synthPixels(16, 16, 1, 0), payload);
        return runtime.invoke(cve.api, {Value(std::move(blob))});
    }
    // Model-file loaders (and any other file-based loader): tensor
    // header/body + trojan trailer (the StegoNet delivery channel).
    if (!isModelFileLoader(cve.api))
        util::warn("attack driver: treating '%s' as a model loader",
                   cve.api.c_str());
    uint32_t rank = 1;
    uint32_t dim = 16;
    std::vector<uint8_t> file(8 + dim * sizeof(float), 0);
    std::memcpy(file.data(), &rank, 4);
    std::memcpy(file.data() + 4, &dim, 4);
    std::vector<uint8_t> trailer = fw::encodePayload(payload);
    file.insert(file.end(), trailer.begin(), trailer.end());
    kernel.vfs().putFile("/attack/model.fpt", file);
    return runtime.invoke(cve.api,
                          {Value(std::string("/attack/model.fpt"))});
}

core::ApiResult
AttackDriver::deliverViaObject(const CveRecord &cve,
                               const fw::ExploitPayload &payload)
{
    const fw::ApiDescriptor &api = registry.require(cve.api);
    fw::Invoker invoker(runtime.kernel(), runtime.hostStore(),
                        core::kHostPartition);
    ipc::ValueList args = invoker.prepareArgs(api, /*seed=*/1);
    // Infuse the payload into the leading bytes of the first object
    // argument — the crafted-data-reaches-vulnerable-kernel path.
    std::vector<uint8_t> blob = fw::encodePayload(payload);
    for (ipc::Value &value : args) {
        if (value.kind() != ipc::Value::Kind::Ref)
            continue;
        uint64_t id = value.asRef().objectId;
        const fw::StoredObject &obj = runtime.hostStore().get(id);
        osim::AddressSpace &host = runtime.hostProcess().space();
        size_t n = std::min(blob.size(), obj.byteLen);
        host.write(obj.addr, blob.data(), n);
        break;
    }
    (void)takesTensor(cve.api); // kind handled by prepareArgs
    return runtime.invoke(cve.api, std::move(args));
}

AttackOutcome
AttackDriver::launch(const AttackSpec &spec)
{
    const CveRecord &cve = cveById(spec.cve);
    osim::Kernel &kernel = runtime.kernel();
    AttackOutcome outcome;

    // Pre-attack observations.
    std::vector<uint8_t> before;
    uint64_t secret_checksum = 0;
    if (spec.targetAddr && spec.targetLen) {
        before.resize(spec.targetLen);
        kernel.process(spec.targetPid)
            .space()
            .read(spec.targetAddr, before.data(), spec.targetLen);
        secret_checksum =
            util::fnv1a64(before.data(), before.size());
    }
    size_t sends_before = kernel.network().sends().size();
    core::RunStats stats_before = runtime.stats();
    size_t procs_before = kernel.processCount();

    // Build + deliver.
    fw::ExploitPayload payload = buildPayload(spec);
    const fw::ApiDescriptor &api = registry.require(cve.api);
    core::ApiResult result;
    if (api.declaredType == fw::ApiType::Loading)
        result = deliverViaFile(cve, payload);
    else
        result = deliverViaObject(cve, payload);
    outcome.delivered = true;

    // Classify the aftermath.
    outcome.hostCrashed = !runtime.hostAlive();
    outcome.executorCrashed = result.agentCrashed;
    if (spec.targetAddr && spec.targetLen) {
        std::vector<uint8_t> after(spec.targetLen);
        try {
            kernel.process(spec.targetPid)
                .space()
                .read(spec.targetAddr, after.data(),
                      spec.targetLen);
            outcome.dataCorrupted = after != before;
        } catch (const osim::MemFault &) {
            // The victim mapping vanished (the process holding it
            // was respawned after a contained crash): the original
            // bytes were never modified in place.
            outcome.dataCorrupted = false;
        }
    }
    for (size_t i = sends_before;
         i < kernel.network().sends().size(); ++i) {
        const osim::NetSendEvent &send = kernel.network().sends()[i];
        if (send.dest == spec.exfilDest &&
            send.checksum == secret_checksum &&
            send.length == spec.targetLen)
            outcome.dataLeaked = true;
    }
    core::RunStats stats_after = runtime.stats();
    outcome.blockedBySyscall =
        stats_after.syscallDenials > stats_before.syscallDenials;
    outcome.blockedByMemFault =
        stats_after.memFaults > stats_before.memFaults ||
        (!result.ok &&
         result.error.find("mem fault") != std::string::npos);
    // Fork-bomb children (restart respawns reuse pids, so any extra
    // process is attacker-spawned).
    for (size_t extra = procs_before;
         extra < kernel.processCount(); ++extra)
        ++outcome.childrenSpawned;

    outcome.detail = result.ok ? "API returned normally"
                               : result.error;
    return outcome;
}

} // namespace freepart::attacks
