/**
 * @file
 * Real-time (wall-clock) google-benchmark of the IPC building blocks
 * behind §4.3's shared-memory ring-buffer RPC: SPSC ring
 * reserve/commit/pop at several message sizes, batch-of-one frame
 * encode/decode, a full simulated host->agent->host round trip, and
 * the temporal-protection mprotect flip, plus two osim costs paid on
 * every replay: building a runtime and checking a frame-sized span.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hh"
#include "core/runtime.hh"
#include "ipc/channel.hh"
#include "ipc/spsc_ring.hh"

using namespace freepart;

namespace {

void
BM_RingPushPop(benchmark::State &state)
{
    std::vector<uint8_t> region(1 << 20);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());
    std::vector<uint8_t> msg(static_cast<size_t>(state.range(0)),
                             0xab);
    std::vector<uint8_t> out;
    for (auto _ : state) {
        ipc::SpscRing::Reservation res;
        benchmark::DoNotOptimize(ring.tryReserve(msg.size(), res));
        ring.reservationWrite(res, msg.data(), msg.size());
        ring.commit(res);
        benchmark::DoNotOptimize(ring.tryPop(out));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RingPushPop)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536);

void
BM_MessageCodec(benchmark::State &state)
{
    ipc::Message msg;
    msg.seq = 42;
    msg.apiId = 7;
    msg.values.emplace_back(std::string("cv2.imread"));
    msg.values.emplace_back(
        std::vector<uint8_t>(static_cast<size_t>(state.range(0))));
    msg.values.emplace_back(ipc::ObjectRef{1, 99});
    for (auto _ : state) {
        std::vector<uint8_t> wire = ipc::encodeBatch({msg});
        std::vector<ipc::Message> back = ipc::decodeBatch(wire);
        benchmark::DoNotOptimize(back);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MessageCodec)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_ChannelRoundTrip(benchmark::State &state)
{
    osim::Kernel kernel;
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    ipc::Channel channel(kernel, "bench", host.pid(), agent.pid());
    ipc::Message request;
    request.values.emplace_back(uint64_t{1});
    std::vector<ipc::Message> incoming, done;
    for (auto _ : state) {
        channel.sendRequestBatch({request}, false);
        channel.receiveRequestBatch(incoming);
        ipc::Message response;
        response.kind = ipc::MsgKind::Response;
        response.seq = incoming.at(0).seq;
        channel.sendResponseBatch({response}, false);
        channel.receiveResponseBatch(done);
        benchmark::DoNotOptimize(done);
    }
}
BENCHMARK(BM_ChannelRoundTrip);

void
BM_RuntimeInvokeProcessing(benchmark::State &state)
{
    osim::Kernel kernel;
    fw::seedFixtureFiles(kernel);
    core::FreePartRuntime runtime(
        kernel, bench::registry(), bench::categorization(),
        core::PartitionPlan::freePartDefault());
    core::ApiResult img = runtime.invoke(
        "cv2.imread", {ipc::Value(std::string("/data/test.fpim"))});
    for (auto _ : state) {
        core::ApiResult res =
            runtime.invoke("cv2.bitwise_not", {img.values[0]});
        benchmark::DoNotOptimize(res);
        img.values[0] = res.values[0];
    }
}
BENCHMARK(BM_RuntimeInvokeProcessing);

void
BM_TemporalProtectFlip(benchmark::State &state)
{
    osim::Kernel kernel;
    osim::Process &proc = kernel.spawn("p");
    osim::Addr addr = proc.space().alloc(
        static_cast<size_t>(state.range(0)));
    bool readonly = false;
    for (auto _ : state) {
        kernel.trustedProtect(proc.pid(), addr,
                              static_cast<size_t>(state.range(0)),
                              readonly ? osim::PermRW
                                       : osim::PermRead);
        readonly = !readonly;
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_TemporalProtectFlip)->Arg(4096)->Arg(1 << 20);

void
BM_RuntimeConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        osim::Kernel kernel;
        core::FreePartRuntime runtime(
            kernel, bench::registry(), bench::categorization(),
            core::PartitionPlan::freePartDefault());
        benchmark::DoNotOptimize(runtime);
    }
}
BENCHMARK(BM_RuntimeConstruct)->Unit(benchmark::kMicrosecond);

void
BM_CheckedSpan(benchmark::State &state)
{
    // 48 pages: one 256x256 RGB frame.
    constexpr size_t kLen = 256 * 256 * 3;
    osim::AddressSpace space(1);
    osim::Addr addr = space.alloc(kLen);
    for (auto _ : state)
        benchmark::DoNotOptimize(space.checkedSpan(addr, kLen, true));
}
BENCHMARK(BM_CheckedSpan);

} // namespace

/**
 * Same CLI contract as the other bench binaries: `--json <path>` is
 * translated into google-benchmark's native JSON reporter flags, so
 * scripts/bench_summary.py can merge this binary too.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> storage;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            storage.push_back(std::string("--benchmark_out=") +
                              argv[++i]);
            storage.push_back("--benchmark_out_format=json");
        } else {
            storage.push_back(std::move(arg));
        }
    }
    for (std::string &s : storage)
        args.push_back(s.data());
    int pass_argc = static_cast<int>(args.size());
    benchmark::Initialize(&pass_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
