#include "analysis/partition_lint.hh"

#include <algorithm>
#include <sstream>

#include "analysis/static_analyzer.hh"
#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "core/partition_plan.hh"
#include "core/runtime.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace freepart::analysis {

namespace {

/** Render a syscall set as "close,openat,read" (sorted by name). */
std::string
syscallListName(const std::set<osim::Syscall> &calls)
{
    std::vector<std::string> names;
    names.reserve(calls.size());
    for (osim::Syscall call : calls)
        names.push_back(osim::syscallName(call));
    std::sort(names.begin(), names.end());
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : ",") + name;
    return out;
}

/** JSON string escaping for the deterministic writers. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

const char *
lintDefectCode(LintDefect defect)
{
    switch (defect) {
    case LintDefect::ByValueCrossing: return "L1";
    case LintDefect::WideAllowlist: return "L2";
    case LintDefect::MiscategorizedApi: return "L3";
    case LintDefect::RegistryInconsistency: return "L4";
    }
    return "L?";
}

const char *
lintDefectName(LintDefect defect)
{
    switch (defect) {
    case LintDefect::ByValueCrossing: return "by-value-crossing";
    case LintDefect::WideAllowlist: return "wide-allowlist";
    case LintDefect::MiscategorizedApi: return "miscategorized-api";
    case LintDefect::RegistryInconsistency:
        return "registry-inconsistency";
    }
    return "unknown";
}

const char *
lintSeverityName(LintSeverity severity)
{
    switch (severity) {
    case LintSeverity::Info: return "info";
    case LintSeverity::Warning: return "warning";
    case LintSeverity::Error: return "error";
    }
    return "unknown";
}

LintSeverity
lintSeverityFromName(const std::string &name)
{
    if (name == "info")
        return LintSeverity::Info;
    if (name == "warning")
        return LintSeverity::Warning;
    if (name == "error")
        return LintSeverity::Error;
    util::fatal("unknown lint severity: %s", name.c_str());
}

const char *
lintRepairKindName(LintRepairKind kind)
{
    switch (kind) {
    case LintRepairKind::None: return "none";
    case LintRepairKind::ForceLdcRef: return "force-ldc-ref";
    case LintRepairKind::NarrowAllowlist: return "narrow-allowlist";
    case LintRepairKind::RecategorizeApi: return "recategorize-api";
    case LintRepairKind::DropStaleEntry: return "drop-stale-entry";
    case LintRepairKind::AdoptCategorization:
        return "adopt-categorization";
    }
    return "unknown";
}

std::string
LintRepair::describe() const
{
    switch (kind) {
    case LintRepairKind::None:
        return "no mechanical repair";
    case LintRepairKind::ForceLdcRef:
        return "pass " + api + " arg " + std::to_string(argIndex) +
               " as an LDC ObjectRef instead of Blob bytes";
    case LintRepairKind::NarrowAllowlist:
        return "narrow partition " + std::to_string(partition) +
               " allowlist to the " +
               std::to_string(narrowedAllowlist.size()) +
               " observed+slack syscalls";
    case LintRepairKind::RecategorizeApi:
        return "recategorize " + api + " as " +
               fw::apiTypeName(newType);
    case LintRepairKind::DropStaleEntry:
        return "drop stale categorization entry " + api;
    case LintRepairKind::AdoptCategorization:
        return "categorize " + api + " as " + fw::apiTypeName(newType);
    }
    return "unknown repair";
}

std::set<osim::Syscall>
LintConfig::defaultAllowlistSlack()
{
    // The runtime-infrastructure set (mirrors the runtime's
    // kInfraSyscalls, plus close: agents may hold fds across calls a
    // short replay never closes).
    return {osim::Syscall::Futex,      osim::Syscall::ShmOpen,
            osim::Syscall::Mmap,       osim::Syscall::Munmap,
            osim::Syscall::Brk,        osim::Syscall::Exit,
            osim::Syscall::Prctl,      osim::Syscall::SchedYield,
            osim::Syscall::Getpid,     osim::Syscall::Close};
}

bool
isDangerousSurplusSyscall(osim::Syscall call)
{
    switch (call) {
    case osim::Syscall::Write:
    case osim::Syscall::Writev:
    case osim::Syscall::Send:
    case osim::Syscall::Sendto:
    case osim::Syscall::Connect:
    case osim::Syscall::Socket:
    case osim::Syscall::Fork:
    case osim::Syscall::Execve:
    case osim::Syscall::Mprotect:
        return true;
    default:
        return false;
    }
}

size_t
LintReport::countByDefect(LintDefect defect) const
{
    size_t n = 0;
    for (const LintFinding &finding : findings)
        if (finding.defect == defect)
            ++n;
    return n;
}

size_t
LintReport::countAtLeast(LintSeverity severity) const
{
    size_t n = 0;
    for (const LintFinding &finding : findings)
        if (finding.severity >= severity)
            ++n;
    return n;
}

size_t
LintReport::repairableCount() const
{
    size_t n = 0;
    for (const LintFinding &finding : findings)
        if (finding.repairable())
            ++n;
    return n;
}

const LintFinding *
LintReport::findByKey(const std::string &key) const
{
    for (const LintFinding &finding : findings)
        if (finding.key == key)
            return &finding;
    return nullptr;
}

PartitionLinter::PartitionLinter(LintConfig config)
    : config_(std::move(config))
{
}

// ---- L1: critical data crossing by value ----------------------------

void
PartitionLinter::lintCrossings(const LintInput &input,
                               LintReport &out) const
{
    std::set<std::string> emitted; // one finding per key: the same
                                   // call site recurs in every app
                                   // that replays it
    for (size_t i = 0; i < input.crossings.size(); ++i) {
        const ValueCrossing &crossing = input.crossings[i];
        if (crossing.byRef)
            continue; // already (or repaired to) an LDC reference
        if (!crossing.critical && crossing.bytes < kByValueMinBytes)
            continue; // small scalar-ish blob, not bulk data
        LintFinding finding;
        finding.defect = LintDefect::ByValueCrossing;
        finding.severity = crossing.critical ? LintSeverity::Error
                                             : LintSeverity::Warning;
        finding.subject = crossing.api;
        std::string what =
            crossing.critical
                ? "critical object '" + crossing.label + "'"
                : std::to_string(crossing.bytes) + " bytes";
        finding.key = "L1:" + crossing.api + ":arg" +
                      std::to_string(crossing.argIndex) + ":" +
                      (crossing.critical ? crossing.label : "blob");
        if (!emitted.insert(finding.key).second)
            continue;
        finding.message =
            what + " crossed into partition " +
            std::to_string(crossing.toPartition) + " by value (Blob) "
            "in arg " + std::to_string(crossing.argIndex) + " of " +
            crossing.api + "; the boundary must carry an LDC "
            "reference so the data never leaves its agent";
        finding.repair.kind = LintRepairKind::ForceLdcRef;
        finding.repair.api = crossing.api;
        finding.repair.argIndex = crossing.argIndex;
        out.findings.push_back(std::move(finding));
    }
}

// ---- L2: allowlists wider than observed + slack ---------------------

void
PartitionLinter::lintAllowlists(const LintInput &input,
                                LintReport &out) const
{
    for (const AgentSnapshot &agent : input.agents) {
        std::set<osim::Syscall> extra;
        for (osim::Syscall call : agent.allowlist)
            if (!agent.observed.count(call) &&
                !config_.allowlistSlack.count(call))
                extra.insert(call);
        if (extra.empty())
            continue;
        bool dangerous = std::any_of(extra.begin(), extra.end(),
                                     isDangerousSurplusSyscall);
        LintFinding finding;
        finding.defect = LintDefect::WideAllowlist;
        finding.severity = dangerous ? LintSeverity::Error
                                     : LintSeverity::Warning;
        finding.subject = agent.name;
        // The key encodes the surplus *content*: widening an
        // already-baselined filter further produces a new key, so
        // the CI gate still fires.
        finding.key = "L2:" + agent.name + ":extra:" +
                      syscallListName(extra);
        finding.message =
            "agent '" + agent.name + "' allows " +
            std::to_string(agent.allowlist.size()) +
            " syscalls but only " +
            std::to_string(agent.observed.size()) +
            " were observed across " +
            std::to_string(input.appsReplayed) +
            " app replays; surplus beyond slack: " +
            syscallListName(extra) +
            (dangerous ? " (includes exfiltration/code-manipulation "
                         "syscalls)"
                       : "");
        finding.repair.kind = LintRepairKind::NarrowAllowlist;
        finding.repair.partition = agent.partition;
        for (osim::Syscall call : agent.allowlist)
            if (!extra.count(call))
                finding.repair.narrowedAllowlist.insert(call);
        out.findings.push_back(std::move(finding));
    }
}

// ---- L3: category contradicts the API's data flow -------------------

fw::ApiType
PartitionLinter::referenceType(const fw::ApiDescriptor &api) const
{
    // The full IR — including the indirect ops only the dynamic
    // tracer can see at runtime — is the ground-truth flow set; apply
    // the §4.2.1 file-copy reduction, then the Fig. 9 rules.
    return fw::classifyFlowOps(reduceFileCopies(api.ir));
}

void
PartitionLinter::lintCategories(const LintInput &input,
                                LintReport &out) const
{
    if (!input.registry)
        return;
    for (const auto &[name, entry] : input.categorization) {
        const fw::ApiDescriptor *desc = input.registry->byName(name);
        if (!desc)
            continue; // stale entry: L4's department
        if (entry.typeNeutral || desc->typeNeutral)
            continue; // context-typed utilities have no fixed home
        if (entry.type == fw::ApiType::Unknown)
            continue; // uncategorized: L4's department
        fw::ApiType flow_type = referenceType(*desc);
        if (flow_type == fw::ApiType::Unknown ||
            flow_type == entry.type)
            continue;
        LintFinding finding;
        finding.defect = LintDefect::MiscategorizedApi;
        finding.severity = LintSeverity::Error;
        finding.subject = name;
        finding.key = "L3:" + name + ":" +
                      fw::apiTypeShortName(entry.type) + "->" +
                      fw::apiTypeShortName(flow_type);
        finding.message =
            name + " is categorized as " +
            fw::apiTypeName(entry.type) + " but its data flow (" +
            std::to_string(desc->ir.size()) +
            " IR ops after file-copy reduction) implies " +
            fw::apiTypeName(flow_type) +
            "; it would execute in an agent whose temporal "
            "protections do not match the data it touches";
        finding.repair.kind = LintRepairKind::RecategorizeApi;
        finding.repair.api = name;
        finding.repair.newType = flow_type;
        out.findings.push_back(std::move(finding));
    }
}

// ---- L4: registry / categorization drift ----------------------------

void
PartitionLinter::lintRegistry(const LintInput &input,
                              LintReport &out) const
{
    if (!input.registry)
        return;
    const fw::ApiRegistry &registry = *input.registry;

    // Duplicate registrations: two descriptors sharing one name make
    // byName() (and therefore partition routing) ambiguous.
    std::map<std::string, size_t> name_counts;
    for (const fw::ApiDescriptor &api : registry.all())
        ++name_counts[api.name];
    for (const auto &[name, count] : name_counts) {
        if (count < 2)
            continue;
        LintFinding finding;
        finding.defect = LintDefect::RegistryInconsistency;
        finding.severity = LintSeverity::Error;
        finding.subject = name;
        finding.key = "L4:duplicate:" + name;
        finding.message = name + " is registered " +
                          std::to_string(count) +
                          " times; routing by name is ambiguous";
        out.findings.push_back(std::move(finding));
    }

    // Stale categorization entries: the categorization names an API
    // the registry no longer has — the runtime would never route it,
    // but its syscalls still widen an agent's policy union.
    for (const auto &[name, entry] : input.categorization) {
        if (registry.byName(name))
            continue;
        LintFinding finding;
        finding.defect = LintDefect::RegistryInconsistency;
        finding.severity = LintSeverity::Error;
        finding.subject = name;
        finding.key = "L4:stale:" + name;
        finding.message =
            "categorization entry '" + name +
            "' matches no registered API" +
            (entry.syscalls.empty()
                 ? std::string()
                 : "; its " + std::to_string(entry.syscalls.size()) +
                       " profiled syscalls still widen the agent "
                       "policy union");
        finding.repair.kind = LintRepairKind::DropStaleEntry;
        finding.repair.api = name;
        out.findings.push_back(std::move(finding));
    }

    // Uncategorized registry APIs: no categorization entry (or an
    // Unknown type) means the runtime falls back to declaredType with
    // no syscall profile — the API runs on ground-truth trust.
    for (const fw::ApiDescriptor &api : registry.all()) {
        auto it = input.categorization.find(api.name);
        bool missing = it == input.categorization.end();
        bool unknown = !missing &&
                       it->second.type == fw::ApiType::Unknown &&
                       !it->second.typeNeutral;
        if (!missing && !unknown)
            continue;
        LintFinding finding;
        finding.defect = LintDefect::RegistryInconsistency;
        finding.severity = LintSeverity::Warning;
        finding.subject = api.name;
        finding.key = "L4:uncategorized:" + api.name;
        finding.message =
            api.name +
            (missing ? " has no categorization entry"
                     : " is categorized as Unknown") +
            "; it would route on declared type with no profiled "
            "syscall set";
        fw::ApiType flow_type = referenceType(api);
        if (flow_type != fw::ApiType::Unknown) {
            finding.repair.kind = LintRepairKind::AdoptCategorization;
            finding.repair.api = api.name;
            finding.repair.newType = flow_type;
        }
        out.findings.push_back(std::move(finding));
    }

    // Unreachable implemented APIs: nothing in the 23 Table 6 traces
    // can ever exercise them, so their syscall profiles inflate the
    // agent allowlists without any replay able to justify them.
    if (!input.reachableApis.empty()) {
        for (const fw::ApiDescriptor &api : registry.all()) {
            if (!api.implemented() ||
                input.reachableApis.count(api.name))
                continue;
            LintFinding finding;
            finding.defect = LintDefect::RegistryInconsistency;
            finding.severity = LintSeverity::Info;
            finding.subject = api.name;
            finding.key = "L4:unreachable:" + api.name;
            finding.message =
                api.name + " is implemented but unreachable from "
                "every replayed app trace; its syscall profile "
                "widens its agent's allowlist unexercised";
            out.findings.push_back(std::move(finding));
        }
    }
}

LintReport
PartitionLinter::lint(const LintInput &input) const
{
    LintReport report;
    lintCrossings(input, report);
    lintAllowlists(input, report);
    lintCategories(input, report);
    lintRegistry(input, report);
    std::sort(report.findings.begin(), report.findings.end(),
              [](const LintFinding &a, const LintFinding &b) {
                  if (a.defect != b.defect)
                      return a.defect < b.defect;
                  return a.key < b.key;
              });
    return report;
}

size_t
PartitionLinter::applyRepairs(LintInput &input,
                              const LintReport &report) const
{
    size_t applied = 0;
    for (const LintFinding &finding : report.findings) {
        const LintRepair &repair = finding.repair;
        switch (repair.kind) {
        case LintRepairKind::None:
            break;
        case LintRepairKind::ForceLdcRef:
            for (ValueCrossing &crossing : input.crossings)
                if (!crossing.byRef && crossing.api == repair.api &&
                    crossing.argIndex == repair.argIndex) {
                    crossing.byRef = true;
                    ++applied;
                }
            break;
        case LintRepairKind::NarrowAllowlist:
            for (AgentSnapshot &agent : input.agents)
                if (agent.partition == repair.partition) {
                    agent.allowlist = repair.narrowedAllowlist;
                    ++applied;
                }
            break;
        case LintRepairKind::RecategorizeApi: {
            auto it = input.categorization.find(repair.api);
            if (it != input.categorization.end()) {
                it->second.type = repair.newType;
                ++applied;
            }
            break;
        }
        case LintRepairKind::DropStaleEntry:
            applied += input.categorization.erase(repair.api);
            break;
        case LintRepairKind::AdoptCategorization: {
            CategoryEntry entry;
            entry.type = repair.newType;
            entry.staticType = repair.newType;
            if (const fw::ApiDescriptor *desc =
                    input.registry
                        ? input.registry->byName(repair.api)
                        : nullptr)
                entry.syscalls = desc->syscalls;
            input.categorization[repair.api] = std::move(entry);
            ++applied;
            break;
        }
        }
    }
    return applied;
}

LintReport
PartitionLinter::fixToConvergence(LintInput &input, size_t max_iters,
                                  size_t *iterations) const
{
    LintReport report = lint(input);
    size_t rounds = 0;
    while (report.repairableCount() > 0 && rounds < max_iters) {
        applyRepairs(input, report);
        ++rounds;
        report = lint(input);
    }
    if (iterations)
        *iterations = rounds;
    return report;
}

// ---- Serialization --------------------------------------------------

std::string
reportToJson(const LintReport &report, const LintInput &input,
             const LintBaseline *baseline)
{
    size_t by_defect[kNumLintDefects] = {0, 0, 0, 0};
    size_t by_severity[3] = {0, 0, 0};
    size_t fresh = 0;
    for (const LintFinding &finding : report.findings) {
        ++by_defect[static_cast<size_t>(finding.defect)];
        ++by_severity[static_cast<size_t>(finding.severity)];
        if (!baseline || !baseline->acceptedKeys.count(finding.key))
            ++fresh;
    }

    std::ostringstream out;
    out << "{\n"
        << "  \"tool\": \"freepart_lint\",\n"
        << "  \"version\": 1,\n"
        << "  \"apps_replayed\": " << input.appsReplayed << ",\n"
        << "  \"counts\": {\n";
    for (size_t d = 0; d < kNumLintDefects; ++d)
        out << "    \""
            << lintDefectCode(static_cast<LintDefect>(d))
            << "\": " << by_defect[d] << ",\n";
    out << "    \"error\": " << by_severity[2] << ",\n"
        << "    \"warning\": " << by_severity[1] << ",\n"
        << "    \"info\": " << by_severity[0] << ",\n"
        << "    \"total\": " << report.findings.size() << ",\n"
        << "    \"new\": " << fresh << "\n"
        << "  },\n"
        << "  \"findings\": [";
    for (size_t i = 0; i < report.findings.size(); ++i) {
        const LintFinding &finding = report.findings[i];
        bool accepted = baseline &&
                        baseline->acceptedKeys.count(finding.key);
        out << (i ? ",\n" : "\n")
            << "    {\n"
            << "      \"key\": \"" << jsonEscape(finding.key)
            << "\",\n"
            << "      \"defect\": \""
            << lintDefectCode(finding.defect) << "\",\n"
            << "      \"class\": \"" << lintDefectName(finding.defect)
            << "\",\n"
            << "      \"severity\": \""
            << lintSeverityName(finding.severity) << "\",\n"
            << "      \"subject\": \"" << jsonEscape(finding.subject)
            << "\",\n"
            << "      \"message\": \"" << jsonEscape(finding.message)
            << "\",\n"
            << "      \"repair\": \""
            << jsonEscape(finding.repair.describe()) << "\",\n"
            << "      \"repair_kind\": \""
            << lintRepairKindName(finding.repair.kind) << "\",\n"
            << "      \"baselined\": " << (accepted ? "true" : "false")
            << "\n    }";
    }
    out << (report.findings.empty() ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

std::string
baselineToJson(const LintReport &report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"tool\": \"freepart_lint\",\n"
        << "  \"version\": 1,\n"
        << "  \"accepted\": [";
    for (size_t i = 0; i < report.findings.size(); ++i) {
        const LintFinding &finding = report.findings[i];
        out << (i ? ",\n" : "\n")
            << "    {\"key\": \"" << jsonEscape(finding.key)
            << "\", \"severity\": \""
            << lintSeverityName(finding.severity)
            << "\", \"subject\": \"" << jsonEscape(finding.subject)
            << "\"}";
    }
    out << (report.findings.empty() ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

LintBaseline
parseBaseline(const std::string &json_text)
{
    // Minimal extraction of every "key" string field. The writer
    // above never emits escaped quotes inside keys (they are built
    // from API/syscall names), so a plain scan is exact for the
    // files this tool writes.
    LintBaseline baseline;
    const std::string marker = "\"key\":";
    size_t pos = 0;
    while ((pos = json_text.find(marker, pos)) != std::string::npos) {
        pos += marker.size();
        size_t open = json_text.find('"', pos);
        if (open == std::string::npos)
            break;
        size_t close = json_text.find('"', open + 1);
        if (close == std::string::npos)
            break;
        baseline.acceptedKeys.insert(
            json_text.substr(open + 1, close - open - 1));
        pos = close + 1;
    }
    return baseline;
}

std::vector<const LintFinding *>
newFindings(const LintReport &report, const LintBaseline &baseline)
{
    std::vector<const LintFinding *> fresh;
    for (const LintFinding &finding : report.findings)
        if (!baseline.acceptedKeys.count(finding.key))
            fresh.push_back(&finding);
    return fresh;
}

// ---- Collector ------------------------------------------------------

LintInput
collectLintInput(const fw::ApiRegistry &registry,
                 const Categorization &categorization,
                 const CollectOptions &options)
{
    LintInput input;
    input.registry = &registry;
    input.categorization = categorization;

    core::PartitionPlan plan = core::PartitionPlan::freePartDefault();
    input.agents.resize(plan.partitionCount());
    for (uint32_t p = 0; p < plan.partitionCount(); ++p) {
        input.agents[p].partition = p;
        input.agents[p].name = plan.partitionName(p);
    }

    apps::WorkloadGenerator::Config wl_config;
    wl_config.imageRows = options.imageRows;
    wl_config.imageCols = options.imageCols;
    wl_config.tensorDim = options.tensorDim;
    wl_config.maxRounds = options.maxRounds;
    apps::WorkloadGenerator generator(registry, wl_config);

    const std::vector<apps::AppModel> &models = apps::appModels();
    size_t limit = options.maxApps
                       ? std::min(options.maxApps, models.size())
                       : models.size();

    for (size_t m = 0; m < limit; ++m) {
        const apps::AppModel &model = models[m];
        osim::Kernel kernel;
        generator.seedInputs(kernel);
        core::FreePartRuntime runtime(
            kernel, registry, categorization,
            core::PartitionPlan::freePartDefault());

        // Tap the boundary: every Blob argument bound for an agent is
        // a by-value crossing. Criticality = the bytes are an exact
        // serialized copy of an annotated (protected) host object.
        runtime.setBoundaryObserver(
            [&](const std::string &api, uint32_t partition,
                const ipc::ValueList &args) {
                for (size_t i = 0; i < args.size(); ++i) {
                    if (args[i].kind() != ipc::Value::Kind::Blob)
                        continue;
                    const std::vector<uint8_t> &blob =
                        args[i].asBlob();
                    ValueCrossing crossing;
                    crossing.api = api;
                    crossing.argIndex = i;
                    crossing.toPartition = partition;
                    crossing.bytes = blob.size();
                    uint64_t blob_sum = util::fnv1a64(blob);
                    for (uint64_t id :
                         runtime.hostStore().ids()) {
                        const fw::StoredObject &obj =
                            runtime.hostStore().get(id);
                        bool annotated = false;
                        for (const core::ProtectedVar &var :
                             runtime.protectedVars())
                            if (var.name == obj.label) {
                                annotated = true;
                                break;
                            }
                        if (!annotated)
                            continue;
                        std::vector<uint8_t> wire =
                            runtime.hostStore().serialize(id);
                        if (wire.size() == blob.size() &&
                            util::fnv1a64(wire) == blob_sum) {
                            crossing.critical = true;
                            crossing.label = obj.label;
                            crossing.objectId = id;
                            break;
                        }
                    }
                    input.crossings.push_back(std::move(crossing));
                }
            });

        generator.run(runtime, model);
        // End the grace period so the captured allowlists are the
        // steady-state (post-lockdown) filters the agents actually
        // run under.
        runtime.lockdownAll();

        for (uint32_t p = 0; p < plan.partitionCount(); ++p) {
            const osim::SyscallFilter &filter =
                runtime.agentFilter(p);
            const osim::Process &proc =
                runtime.kernel().process(runtime.agentPid(p));
            AgentSnapshot &agent = input.agents[p];
            for (osim::Syscall call : osim::allSyscalls()) {
                if (filter.permits(call))
                    agent.allowlist.insert(call);
                if (proc.syscallCounts[static_cast<size_t>(call)] >
                    0)
                    agent.observed.insert(call);
            }
        }
        for (const apps::WorkloadCall &call : generator.trace(model))
            input.reachableApis.insert(call.api);
    }
    input.appsReplayed = limit;
    return input;
}

// ---- Defect planting ------------------------------------------------

void
plantByValueCrossing(LintInput &input)
{
    ValueCrossing crossing;
    crossing.api = "cv2.matchTemplate";
    crossing.argIndex = 1;
    crossing.toPartition = 1; // Processing agent
    crossing.bytes = 256 * 1024;
    crossing.critical = true;
    crossing.label = "planted:omr-template";
    crossing.objectId = 0xbad0bad0;
    input.crossings.push_back(std::move(crossing));
}

void
plantWideAllowlist(LintInput &input)
{
    if (input.agents.empty()) {
        AgentSnapshot agent;
        agent.partition = 0;
        agent.name = "Loading";
        agent.observed = {osim::Syscall::Openat, osim::Syscall::Read,
                          osim::Syscall::Close};
        agent.allowlist = agent.observed;
        input.agents.push_back(std::move(agent));
    }
    input.agents[0].allowlist.insert(osim::Syscall::Send);
    input.agents[0].allowlist.insert(osim::Syscall::Write);
    input.agents[0].observed.erase(osim::Syscall::Send);
    input.agents[0].observed.erase(osim::Syscall::Write);
}

void
plantMiscategorization(LintInput &input)
{
    for (auto &[name, entry] : input.categorization) {
        if (entry.type != fw::ApiType::Loading || entry.typeNeutral)
            continue;
        if (input.registry) {
            const fw::ApiDescriptor *desc =
                input.registry->byName(name);
            if (!desc || desc->typeNeutral)
                continue;
        }
        entry.type = fw::ApiType::Processing;
        return;
    }
    util::fatal("plantMiscategorization: no loading entry to flip");
}

void
plantRegistryInconsistency(LintInput &input)
{
    CategoryEntry stale;
    stale.type = fw::ApiType::Storing;
    stale.syscalls = {osim::Syscall::Openat, osim::Syscall::Write};
    input.categorization["cv2.removedInRefactor"] = std::move(stale);
    if (!input.categorization.empty() && input.registry)
        for (const fw::ApiDescriptor &api : input.registry->all())
            if (input.categorization.erase(api.name)) {
                // One registry API is now uncategorized.
                break;
            }
}

void
plantAllDefects(LintInput &input)
{
    plantByValueCrossing(input);
    plantWideAllowlist(input);
    plantMiscategorization(input);
    plantRegistryInconsistency(input);
}

} // namespace freepart::analysis
