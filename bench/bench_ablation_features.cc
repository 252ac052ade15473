/**
 * @file
 * Feature ablation (the DESIGN.md ablation hooks): starting from full
 * FreePart, switch off one mechanism at a time and measure what each
 * one buys — which attacks get through and what each costs. This is
 * the design-choice evidence behind §4.3.2 (LDC), §4.4.1 (syscall
 * restriction + grace period), §4.4.2 (restart), and §4.4.3
 * (temporal memory protection).
 */

#include "attacks/attack_driver.hh"
#include "apps/omr_checker.hh"
#include "bench/bench_common.hh"

using namespace freepart;

namespace {

struct Variant {
    const char *name;
    const char *drops;
    core::RuntimeConfig config;
};

struct Outcome {
    bool corruption_blocked = false;
    bool exfil_blocked = false;
    bool dos_survived = false;
    bool recovered = false; //!< benign call works after the attack
    double overhead_pct = 0.0;
};

Outcome
evaluateVariant(const core::RuntimeConfig &config)
{
    Outcome outcome;

    // --- Security probes, one fresh runtime per attack ---------------
    auto fresh = [&](auto &&probe) {
        osim::Kernel kernel;
        fw::seedFixtureFiles(kernel);
        core::FreePartRuntime runtime(
            kernel, bench::registry(), bench::categorization(),
            core::PartitionPlan::freePartDefault(), config);
        osim::Addr secret = runtime.allocHostData("secret", 64);
        runtime.hostProcess().space().write(secret, "SENSITIVE",
                                            9);
        // Drive one state transition so temporal protection (when
        // enabled) is armed, then lock the filters.
        runtime.invoke("cv2.VideoCapture.read", {});
        runtime.lockdownAll();
        attacks::AttackDriver driver(runtime, bench::registry());
        probe(kernel, runtime, driver, secret);
    };

    fresh([&](osim::Kernel &, core::FreePartRuntime &runtime,
              attacks::AttackDriver &driver, osim::Addr secret) {
        attacks::AttackSpec spec;
        spec.cve = "CVE-2017-12597";
        spec.goal = attacks::AttackGoal::CorruptData;
        spec.targetPid = runtime.hostPid();
        spec.targetAddr = secret;
        spec.targetLen = 8;
        attacks::AttackOutcome res = driver.launch(spec);
        outcome.corruption_blocked = !res.dataCorrupted &&
                                     runtime.hostAlive();
    });

    fresh([&](osim::Kernel &kernel, core::FreePartRuntime &runtime,
              attacks::AttackDriver &driver, osim::Addr) {
        // §5.3: the loading agent legitimately holds other users'
        // inputs — data the exploit CAN read. Only the syscall
        // filter stands between it and the network.
        core::ApiResult img = runtime.invoke(
            "cv2.imread",
            {ipc::Value(std::string("/data/test.fpim"))});
        const fw::MatDesc &resident = runtime.storeOf(0).mat(
            img.values[0].asRef().objectId);
        attacks::AttackSpec spec;
        spec.cve = "CVE-2017-12597"; // exploit in the same agent
        spec.goal = attacks::AttackGoal::Exfiltrate;
        spec.targetPid = runtime.agentPid(0);
        spec.targetAddr = resident.addr;
        spec.targetLen = 64;
        driver.launch(spec);
        outcome.exfil_blocked = kernel.network().bytesSent() == 0;
    });

    fresh([&](osim::Kernel &, core::FreePartRuntime &runtime,
              attacks::AttackDriver &driver, osim::Addr) {
        attacks::AttackSpec spec;
        spec.cve = "CVE-2017-14136";
        spec.goal = attacks::AttackGoal::Dos;
        driver.launch(spec);
        outcome.dos_survived = runtime.hostAlive();
        core::ApiResult again = runtime.invoke(
            "cv2.imread",
            {ipc::Value(std::string("/data/test.fpim"))});
        outcome.recovered = again.ok;
    });

    // --- Cost: the OMR workload under this variant --------------------
    auto elapsed = [&](core::PartitionPlan plan,
                       core::RuntimeConfig rt_config) {
        osim::Kernel kernel;
        apps::OmrChecker::Config omr;
        omr.imageRows = 512;
        omr.imageCols = 512;
        auto inputs = apps::OmrChecker::seedInputs(kernel, 2, omr);
        core::FreePartRuntime runtime(
            kernel, bench::registry(), bench::categorization(),
            std::move(plan), rt_config);
        apps::OmrChecker app(runtime, omr);
        app.setup();
        for (const std::string &input : inputs)
            app.gradeSubmission(input);
        app.finish();
        return static_cast<double>(runtime.stats().elapsed());
    };
    core::RuntimeConfig vanilla;
    vanilla.enforceMemoryProtection = false;
    vanilla.restrictSyscalls = false;
    double base = elapsed(core::PartitionPlan::inHost(), vanilla);
    double variant =
        elapsed(core::PartitionPlan::freePartDefault(), config);
    outcome.overhead_pct = (variant - base) / base * 100.0;
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonOutput json("ablation_features", argc, argv);
    bench::banner("Ablation",
                  "What each FreePart mechanism buys (and costs)");

    std::vector<Variant> variants;
    variants.push_back({"full FreePart", "-", {}});
    {
        core::RuntimeConfig config;
        config.enforceMemoryProtection = false;
        variants.push_back(
            {"no temporal mprotect", "S4.4.3", config});
    }
    {
        core::RuntimeConfig config;
        config.restrictSyscalls = false;
        variants.push_back({"no syscall filters", "S4.4.1", config});
    }
    {
        core::RuntimeConfig config;
        config.restartAgents = false;
        variants.push_back({"no agent restart", "S4.4.2", config});
    }
    {
        core::RuntimeConfig config;
        config.lazyDataCopy = false;
        variants.push_back({"no lazy data copy", "S4.3.2", config});
    }
    {
        core::RuntimeConfig config;
        config.lockAfterInit = false;
        variants.push_back(
            {"no post-init lockdown", "S4.4.1", config});
    }
    {
        core::RuntimeConfig config;
        config.batchedRpc = false;
        variants.push_back(
            {"no batched zero-copy RPC", "hot path", config});
    }
    {
        core::RuntimeConfig config;
        config.backgroundRestart = false;
        variants.push_back(
            {"cold (foreground) restart", "hot path", config});
    }

    util::TextTable table({"Variant", "drops", "corruption",
                           "exfiltration", "DoS", "recovers",
                           "overhead"});
    for (const Variant &variant : variants) {
        Outcome outcome = evaluateVariant(variant.config);
        table.addRow(
            {variant.name, variant.drops,
             outcome.corruption_blocked ? "blocked" : "SUCCEEDS",
             outcome.exfil_blocked ? "blocked" : "LEAKS",
             outcome.dos_survived ? "contained" : "HOST DOWN",
             outcome.recovered ? "yes" : "NO",
             util::fmtDouble(outcome.overhead_pct, 1) + "%"});
        std::string key = variant.name;
        for (char &c : key)
            if (c == ' ' || c == '-' || c == '(' || c == ')')
                c = '_';
        json.metric(key + "_overhead_pct", outcome.overhead_pct);
        json.metric(key + "_all_blocked",
                    outcome.corruption_blocked &&
                            outcome.exfil_blocked &&
                            outcome.dos_survived
                        ? 1
                        : 0);
    }
    std::printf("%s", table.render().c_str());
    json.flush();
    bench::note("process isolation alone already blocks host-data "
                "corruption; the filters stop exfiltration/code "
                "rewriting; restart restores availability; LDC pays "
                "for everything");
    return 0;
}
