/**
 * @file
 * The three app-trace workloads: the 23 Table 6 traces replayed
 * closed-loop by one caller, each app through a fresh FreePart runtime
 * (default 4-agent plan) and then through an in-host twin runtime on
 * the same arguments. The twin supplies the Fig. 13 overhead
 * denominator, the fw-layer cost, and the output digests FreePart must
 * match.
 *
 *   app_pipeline    synchronous invoke, the Fig. 13 regime
 *   crash_recovery  synchronous invoke under a seeded AgentCall crash
 *                   plan with default supervision
 *   async_pipeline  invokeAsync/peekResult with pipelineParallel and
 *                   speculativeFlips (dispatchPipelined, timelines,
 *                   per-call argument checkpoints)
 *
 * The replay mirrors apps::WorkloadGenerator's (trace, argument
 * seeding, chain substitution, round-boundary host fetch) so that at a
 * shipped bench's settings it reproduces that bench's numbers, but it
 * is the benchmark's own: every public call is timed on both clocks.
 */

#include <algorithm>
#include <string>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "core/runtime.hh"
#include "fw/invoker.hh"
#include "osim/fault_injection.hh"
#include "osim/kernel.hh"
#include "perfbench.hh"
#include "util/checksum.hh"

namespace perfbench {

namespace {

using namespace freepart;

enum class AppMode { Pipeline, Crash, Async };

/** Plan seed and crash rate of bench_fault_recovery's 10% row. The
 *  plan is part of the workload, not of its seeded inputs: every seed
 *  meets the same crash schedule, so seeds differ only in frames and
 *  argument contents, as they do on the other app workloads. */
constexpr uint64_t kCrashSeed = 0xfa175eedull;
constexpr double kCrashRate = 0.10;

/** Ids sampled per app for the hasObject miss probe. */
constexpr size_t kMissProbeIds = 32;

apps::WorkloadGenerator::Config
configFor(AppMode mode, Size size, uint64_t seed)
{
    apps::WorkloadGenerator::Config c;
    switch (size) {
    case Size::Fidelity:
        // bench_fig13_overhead / bench_fault_recovery settings.
        c.imageRows = c.imageCols = mode == AppMode::Pipeline ? 768 : 256;
        c.maxRounds = mode == AppMode::Pipeline ? 3 : 2;
        c.maxCallsPerRound = 24;
        return c;
    case Size::Tiny:
        c.imageRows = c.imageCols = 48;
        c.tensorDim = 8;
        c.maxRounds = 2;
        c.maxCallsPerRound = 3;
        break;
    case Size::Bench:
        c.imageRows = c.imageCols = 256;
        c.tensorDim = 32;
        c.maxRounds = mode == AppMode::Async ? 4 : 2;
        c.maxCallsPerRound = mode == AppMode::Async ? 4 : 24;
        break;
    }
    // The seed jitters the frame width by up to +-4 px (even steps)
    // and the tensor side by 0 or 1, so sim-clock results vary a
    // little from seed to seed.
    uint64_t h = mixSeed(seed);
    c.imageCols += 2 * static_cast<uint32_t>(h % 5);
    c.imageCols -= 4;
    c.tensorDim += static_cast<uint32_t>((h >> 8) % 2);
    return c;
}

core::RuntimeConfig
runtimeConfigFor(AppMode mode)
{
    core::RuntimeConfig rc;
    if (mode == AppMode::Async) {
        rc.pipelineParallel = true;
        rc.speculativeFlips = true;
    }
    return rc;
}

/** Same compatibility rule as the workload generator's chain
 *  substitution for tensors. */
bool
tensorChainCompatible(const std::string &api,
                      const std::vector<uint32_t> &chain_shape,
                      const std::vector<uint32_t> &prep_shape)
{
    if (api == "torch.relu" || api == "torch.softmax" ||
        api == "torch.argmax" || api == "np.argmax" ||
        api == "np.mean" || api == "torch.save" || api == "np.save" ||
        api == "tf.keras.Model.save_weights" ||
        api == "caffe.WriteProtoToTextFile" ||
        api == "caffe.hdf5_save_string" ||
        api == "torch.utils.tensorboard.SummaryWriter.add_scalar" ||
        api == "tf.keras.preprocessing.image.save_img")
        return true;
    if (api == "torch.nn.MaxPool2d" || api == "tf.nn.max_pool" ||
        api == "tf.nn.avg_pool")
        return chain_shape.size() == 3 && chain_shape[1] >= 2 &&
               chain_shape[2] >= 2;
    if (api == "torch.nn.Conv2d" || api == "tf.nn.conv2d" ||
        api == "tf.nn.conv3d" || api == "caffe.Net.Forward")
        return chain_shape.size() == 3 && chain_shape[0] == 3 &&
               chain_shape[1] >= 3 && chain_shape[2] >= 3;
    return chain_shape == prep_shape;
}

/** Outcome of replaying one app trace on one runtime. */
struct Replay {
    uint64_t ok = 0;
    uint64_t failed = 0;       //!< errors the fault plan does not explain
    uint64_t faultFailed = 0;  //!< crash/quarantine/lost-object errors
    bool lostChain = false;    //!< the runtime reported the chain lost
    bool hasFinal = false;
    uint64_t digest = 0;       //!< FNV-1a of the final object
    std::vector<uint64_t> chainIds; //!< chain objects seen, in order
    std::vector<uint64_t> lostIds;  //!< chain ids reported gone
    core::RunStats stats;
    Samples entryHostUs;
    Samples simCallUs;
    uint64_t simFingerprint = 0; //!< fold of every call's sim latency
};

/**
 * Replay one trace. The twin replay records only its invoke spans
 * (fw.twin_invoke) so argument, fetch and lookup spans stay
 * FreePart's.
 */
Replay
replayApp(core::FreePartRuntime &runtime, const fw::ApiRegistry &registry,
          const std::vector<apps::WorkloadCall> &trace,
          const fw::TestFixture &fixture, uint64_t arg_seed, bool async,
          bool twin, bool crash_plan, Tracer &tracer, uint64_t &call_id)
{
    Replay out;
    osim::Kernel &kernel = runtime.kernel();
    fw::Invoker invoker(kernel, runtime.hostStore(), core::kHostPartition,
                        fixture);
    Op entry = twin ? Op::TwinInvoke
                    : (async ? Op::InvokeAsync : Op::Invoke);
    auto begin = [&](Op op) {
        return twin && op != Op::TwinInvoke
                   ? Tracer::kNone
                   : tracer.begin(op, call_id, kernel.now());
    };
    auto end = [&](uint32_t span) { tracer.end(span, kernel.now()); };
    auto fetch = [&](const ipc::ObjectRef &ref) {
        uint32_t span = begin(Op::FetchToHost);
        runtime.fetchToHost(ref);
        end(span);
    };
    auto alive = [&](uint64_t id) {
        uint32_t span = begin(Op::HasObject);
        bool found = runtime.hasObject(id);
        end(span);
        return found;
    };
    auto objectKind = [&](const ipc::ObjectRef &ref) {
        return runtime.storeOf(runtime.homeOf(ref.objectId))
            .get(ref.objectId)
            .kind;
    };

    bool have_chain = false;
    ipc::ObjectRef chain{};
    fw::ObjKind chain_kind = fw::ObjKind::Bytes;
    uint64_t seed = arg_seed;
    for (const apps::WorkloadCall &call : trace) {
        ++call_id;
        // A chain object lost with a crashed agent is dropped; the app
        // rebuilds from the next load call.
        if (have_chain && !alive(chain.objectId)) {
            have_chain = false;
            out.lostChain = true;
            out.lostIds.push_back(chain.objectId);
        }
        // Round boundary: the host inspects the previous round's
        // result (a non-lazy copy). Async replays defer the fetch
        // until the next load is in flight.
        bool fetch_prev = call.startsRound && have_chain;
        ipc::ObjectRef prev_chain = chain;
        if (fetch_prev && !async)
            fetch(prev_chain);

        uint32_t prep = begin(Op::PrepareArgs);
        const fw::ApiDescriptor &api = registry.require(call.api);
        ipc::ValueList args = invoker.prepareArgs(api, seed++);
        if (call.chainInput && have_chain && !args.empty() &&
            args[0].kind() == ipc::Value::Kind::Ref &&
            objectKind(args[0].asRef()) == chain_kind) {
            bool compatible = true;
            if (chain_kind == fw::ObjKind::Mat) {
                const ipc::ObjectRef &prep_ref = args[0].asRef();
                const fw::MatDesc &prep_mat =
                    runtime.storeOf(runtime.homeOf(prep_ref.objectId))
                        .mat(prep_ref.objectId);
                const fw::MatDesc &chain_mat =
                    runtime.storeOf(runtime.homeOf(chain.objectId))
                        .mat(chain.objectId);
                compatible = prep_mat.channels == chain_mat.channels;
                if (call.api == "cv2.absdiff" ||
                    call.api == "cv2.addWeighted")
                    compatible = compatible &&
                                 prep_mat.rows == chain_mat.rows &&
                                 prep_mat.cols == chain_mat.cols;
            } else if (chain_kind == fw::ObjKind::Tensor) {
                uint64_t prep_id = args[0].asRef().objectId;
                compatible = tensorChainCompatible(
                    call.api,
                    runtime.storeOf(runtime.homeOf(chain.objectId))
                        .tensor(chain.objectId)
                        .shape,
                    runtime.storeOf(runtime.homeOf(prep_id))
                        .tensor(prep_id)
                        .shape);
            }
            if (compatible)
                args[0] = ipc::Value(chain);
        }
        end(prep);

        core::ApiResult res;
        uint32_t partition = runtime.partitionOfApi(call.api);
        SimTime sim0 = kernel.now();
        double host0 = hostNow();
        uint32_t span = begin(entry);
        core::CallTicket ticket;
        if (async)
            ticket = runtime.invokeAsync(call.api, std::move(args));
        else
            res = runtime.invoke(call.api, std::move(args));
        end(span);
        double host1 = hostNow();
        // An async call completes where its agent's timeline ends; a
        // sync call (or one run in the host) when invoke returns.
        SimTime sim1 = kernel.now();
        if (async && partition != core::kHostPartition)
            sim1 = std::max(sim1,
                            kernel.timelineOf(runtime.agentPid(partition)));
        out.entryHostUs.add((host1 - host0) * 1e6);
        out.simCallUs.add(static_cast<double>(sim1 - sim0) / 1e3);
        fold(out.simFingerprint, sim1 - sim0);
        if (async) {
            // Execution is eager: peeking wires the dataflow without
            // syncing the host clock to the agent timeline.
            uint32_t peek = begin(Op::PeekResult);
            if (const core::ApiResult *peeked = runtime.peekResult(ticket))
                res = *peeked;
            else
                res.error = "async ticket vanished";
            end(peek);
            if (fetch_prev)
                fetch(prev_chain);
        }

        if (!res.ok) {
            bool explained =
                crash_plan &&
                (res.agentCrashed || res.quarantined ||
                 res.error.find("lost") != std::string::npos ||
                 res.error.find("crash") != std::string::npos);
            ++(explained ? out.faultFailed : out.failed);
            continue;
        }
        ++out.ok;
        if (!res.values.empty() &&
            res.values[0].kind() == ipc::Value::Kind::Ref) {
            ipc::ObjectRef result = res.values[0].asRef();
            fw::ObjKind kind = objectKind(result);
            if (kind == fw::ObjKind::Mat || kind == fw::ObjKind::Tensor) {
                chain = result;
                chain_kind = kind;
                have_chain = true;
                out.chainIds.push_back(result.objectId);
            }
        }
    }
    // The host consumes the final result.
    if (have_chain && alive(chain.objectId)) {
        fetch(chain);
        out.hasFinal = true;
        out.digest = util::fnv1a64(
            runtime.hostStore().serialize(chain.objectId));
    }
    if (async) {
        uint32_t span = begin(Op::DrainAll);
        runtime.drainAll();
        end(span);
    }
    out.stats = runtime.stats();
    return out;
}

class AppWorkload : public Workload
{
  public:
    AppWorkload(AppMode mode, Size size, uint64_t seed)
        : mode_(mode), size_(size), seed_(seed),
          config_(configFor(mode, size, seed))
    {
        fixture_.rows = config_.imageRows;
        fixture_.cols = config_.imageCols;
        fixture_.tensorDim = config_.tensorDim;
    }

    void
    setup() override
    {
        ctx_ = FrameworkContext::build();
        generator_ = std::make_unique<apps::WorkloadGenerator>(
            *ctx_->registry, config_);
        traces_.clear();
        for (const apps::AppModel &model : apps::appModels())
            traces_.push_back(generator_->trace(model));
        // The per-app stack every replay builds: kernel, fixture
        // files, and a FreePart runtime (host + agents + policies).
        osim::Kernel kernel;
        generator_->seedInputs(kernel);
        core::FreePartRuntime runtime(
            kernel, *ctx_->registry, ctx_->cats,
            core::PartitionPlan::freePartDefault(),
            runtimeConfigFor(mode_));
    }

    Pass run(Tracer &tracer) override;

  private:
    uint64_t
    argSeed(const apps::AppModel &model) const
    {
        // Fidelity keeps the generator's own argument seeds.
        uint64_t base = static_cast<uint64_t>(model.id) * 1000;
        return size_ == Size::Fidelity
                   ? base
                   : base + ((mixSeed(seed_ ^ 0xa55) & 0xffffff) << 16);
    }

    AppMode mode_;
    Size size_;
    uint64_t seed_;
    apps::WorkloadGenerator::Config config_;
    fw::TestFixture fixture_;
    std::unique_ptr<FrameworkContext> ctx_;
    std::unique_ptr<apps::WorkloadGenerator> generator_;
    std::vector<std::vector<apps::WorkloadCall>> traces_;
};

Pass
AppWorkload::run(Tracer &tracer)
{
    Pass pass;
    CoreCounters counters;
    Samples overheads, mttrs, availability;
    double makespan_ns = 0.0, twin_ns = 0.0;
    uint64_t call_id = 0, lost_chains = 0, twin_calls = 0;
    bool crash = mode_ == AppMode::Crash;
    const std::vector<apps::AppModel> &models = apps::appModels();

    for (size_t i = 0; i < models.size(); ++i) {
        const apps::AppModel &model = models[i];
        // ---- FreePart replay: the measured segment ----
        pass.probeSeconds.add(hostSpeedProbe());
        double host0 = hostNow();
        uint32_t root = tracer.begin(Op::Replay, call_id + 1, 0);
        osim::FaultInjector injector(kCrashSeed +
                                     static_cast<uint64_t>(model.id));
        osim::Kernel kernel;
        if (crash) {
            kernel.setFaultInjector(&injector);
            osim::FaultSpec spec;
            spec.point = osim::FaultPoint::AgentCall;
            spec.action = osim::FaultAction::Crash;
            spec.count = 0; // unlimited
            spec.probability = kCrashRate;
            spec.tag = "crash@0.1";
            injector.schedule(spec);
        }
        generator_->seedInputs(kernel);
        core::FreePartRuntime runtime(
            kernel, *ctx_->registry, ctx_->cats,
            core::PartitionPlan::freePartDefault(),
            runtimeConfigFor(mode_));
        Replay fp = replayApp(runtime, *ctx_->registry, traces_[i],
                              fixture_, argSeed(model),
                              mode_ == AppMode::Async, false, crash,
                              tracer, call_id);
        tracer.end(root, kernel.now());
        pass.hostSeconds += hostNow() - host0;

        // ---- In-host twin on the same arguments ----
        osim::Kernel twin_kernel;
        generator_->seedInputs(twin_kernel);
        core::FreePartRuntime twin_runtime(
            twin_kernel, *ctx_->registry, ctx_->cats,
            core::PartitionPlan::inHost(), core::RuntimeConfig());
        uint64_t twin_call_id = 0;
        Replay twin = replayApp(twin_runtime, *ctx_->registry,
                                traces_[i], fixture_, argSeed(model),
                                false, true, false, tracer, twin_call_id);
        twin_calls += twin.ok + twin.failed;

        // ---- End-state probes (traced passes only) ----
        if (tracer.enabled()) {
            uint32_t parts = runtime.plan().partitionCount();
            for (uint32_t p = 0; p < parts; ++p) {
                if (!runtime.agentAlive(p))
                    continue;
                double t0 = hostNow();
                runtime.checkpointAgent(p);
                pass.checkpointProbeMs.add((hostNow() - t0) * 1e3);
            }
            // Ids known to be absent here: chains the runtime reported
            // lost, else objects only the twin ever minted.
            const std::vector<uint64_t> &gone =
                fp.lostIds.empty() ? twin.chainIds : fp.lostIds;
            for (size_t k = 0; k < gone.size() && k < kMissProbeIds;
                 ++k) {
                double t0 = hostNow();
                bool found = runtime.hasObject(gone[k]);
                pass.missProbeUs.add((hostNow() - t0) * 1e6);
                if (found)
                    pass.errors.push_back(
                        model.name + ": hasObject found a gone id");
            }
        }

        // ---- Checks ----
        uint64_t calls = fp.ok + fp.failed + fp.faultFailed;
        pass.calls += calls;
        pass.failed += fp.failed + twin.failed;
        pass.expectedFailures += fp.faultFailed;
        pass.entryHostUs.append(fp.entryHostUs);
        pass.simCallUs.append(fp.simCallUs);
        if (fp.failed || twin.failed)
            pass.errors.push_back(model.name + ": unexplained failed call");
        bool same = fp.hasFinal == twin.hasFinal && fp.digest == twin.digest;
        if (!same) {
            if (crash && (fp.lostChain || fp.faultFailed))
                ++lost_chains; // the runtime reported the loss
            else
                pass.errors.push_back(model.name +
                                      ": final digest differs from twin");
        }
        if (fp.stats.memFaults || fp.stats.syscallDenials)
            pass.errors.push_back(model.name +
                                  ": memory fault or syscall denial");

        // ---- Sim-clock results ----
        double fp_ns = static_cast<double>(fp.stats.elapsed());
        double twin_elapsed = static_cast<double>(twin.stats.elapsed());
        makespan_ns += fp_ns;
        twin_ns += twin_elapsed;
        overheads.add((fp_ns - twin_elapsed) / twin_elapsed * 100.0);
        availability.add(calls ? static_cast<double>(fp.ok) /
                                     static_cast<double>(calls)
                               : 1.0);
        if (fp.stats.recoveries)
            mttrs.add(static_cast<double>(fp.stats.meanTimeToRecover()) /
                      1e3);
        counters.add(fp.stats);
        counters.faultsInjected += injector.injectedCount();

        fold(pass.fingerprint, fp.stats.elapsed());
        fold(pass.fingerprint, twin.stats.elapsed());
        fold(pass.fingerprint, fp.digest);
        fold(pass.fingerprint, fp.ok);
        fold(pass.fingerprint, fp.stats.ipcMessages);
        fold(pass.fingerprint, fp.stats.checkpointBytesSaved);
        fold(pass.fingerprint, fp.simFingerprint);
    }

    pass.simMakespanMs = makespan_ns / 1e6;
    pass.sim["failed_share"] =
        pass.calls ? static_cast<double>(pass.failed +
                                         pass.expectedFailures) /
                         static_cast<double>(pass.calls)
                   : 0.0;
    if (mode_ == AppMode::Pipeline)
        pass.sim["sim_overhead_pct"] = overheads.mean();
    if (crash) {
        pass.sim["sim_mttr_us"] = mttrs.mean();
        pass.sim["availability"] = availability.mean();
        pass.sim["lost_chains"] = static_cast<double>(lost_chains);
    }
    counters.report(pass.layer);
    pass.layer.set("fw.twin_sim_ms", twin_ns / 1e6, "ms", twin_calls);
    if (mode_ != AppMode::Async) {
        pass.layer.set("core.invoke_sim_us.p50", pass.simCallUs.quantile(0.5),
                       "us", pass.simCallUs.count());
        pass.layer.set("core.invoke_sim_us.p99",
                       pass.simCallUs.quantile(0.99), "us",
                       pass.simCallUs.count());
    } else {
        pass.layer.absent("core.invoke_sim_us.p50", "us");
        pass.layer.absent("core.invoke_sim_us.p99", "us");
    }
    return pass;
}

} // namespace

std::unique_ptr<Workload>
makeAppPipeline(Size size, uint64_t seed)
{
    return std::make_unique<AppWorkload>(AppMode::Pipeline, size, seed);
}

std::unique_ptr<Workload>
makeCrashRecovery(Size size, uint64_t seed)
{
    return std::make_unique<AppWorkload>(AppMode::Crash, size, seed);
}

std::unique_ptr<Workload>
makeAsyncPipeline(Size size, uint64_t seed)
{
    return std::make_unique<AppWorkload>(AppMode::Async, size, seed);
}

} // namespace perfbench
