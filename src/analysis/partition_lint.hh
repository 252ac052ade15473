/**
 * @file
 * Partition-boundary linter (DESIGN.md §12). FreePart's security
 * argument rests on the partitioning being *good*: critical data
 * stays behind LDC references, per-agent seccomp allowlists are
 * minimal, and every API runs in the agent its data flow demands.
 * Nothing enforced that until now — a scaling PR could silently widen
 * a filter or start copying critical objects by value and every test
 * would still pass. This pass consumes the API registry, the hybrid
 * categorizer output, and dynamic observations from replaying the 23
 * Table 6 app models, and emits typed findings across four
 * bad-partitioning defect classes (in the spirit of DITING's
 * defect taxonomy and compartmentalization-aware program repair):
 *
 *  - L1 by-value boundary crossing: a critical (annotated) object's
 *    bytes crossed into an agent as a Blob argument instead of an
 *    LDC ObjectRef — the exact leak the §5.3 exfiltration study
 *    assumes cannot happen.
 *  - L2 wide allowlist: an agent's installed syscall allowlist is
 *    strictly wider than the union of syscalls observed across the
 *    replayed apps plus a configurable slack set.
 *  - L3 miscategorized API: an API's categorized type contradicts
 *    the type its own data-flow IR implies (Fig. 9 rules), e.g. a
 *    "processing" API whose flows read a device.
 *  - L4 registry inconsistency: stale categorization entries,
 *    uncategorized registry APIs, duplicate registrations, and
 *    implemented APIs unreachable from every Table 6 trace.
 *
 * Every finding carries a machine-applicable repair (force-LDC the
 * argument, narrow the filter to observed+slack, recategorize, drop
 * the stale entry); applyRepairs() + re-lint converges to a fixed
 * point. tools/freepart_lint wraps this as a CI gate with a seeded
 * baseline so only *new* findings fail a PR.
 */

#ifndef FREEPART_ANALYSIS_PARTITION_LINT_HH
#define FREEPART_ANALYSIS_PARTITION_LINT_HH

#include <set>
#include <string>
#include <vector>

#include "analysis/hybrid_categorizer.hh"
#include "fw/api_registry.hh"
#include "osim/syscalls.hh"

namespace freepart::analysis {

/** The four bad-partitioning defect classes. */
enum class LintDefect : uint8_t {
    ByValueCrossing = 0,   //!< L1: critical data crossed by value
    WideAllowlist,         //!< L2: filter wider than observed+slack
    MiscategorizedApi,     //!< L3: category contradicts data flow
    RegistryInconsistency, //!< L4: registry/categorization drift
};

/** Number of defect classes. */
constexpr size_t kNumLintDefects = 4;

/** Short code of a defect class ("L1".."L4"). */
const char *lintDefectCode(LintDefect defect);

/** Kebab-case class name ("by-value-crossing", ...). */
const char *lintDefectName(LintDefect defect);

/** Finding severities, ordered: Info < Warning < Error. */
enum class LintSeverity : uint8_t { Info = 0, Warning, Error };

/** Severity name ("info", "warning", "error"). */
const char *lintSeverityName(LintSeverity severity);

/** Parse a severity name; throws util::FatalError on unknown. */
LintSeverity lintSeverityFromName(const std::string &name);

/** Machine-applicable repair kinds. */
enum class LintRepairKind : uint8_t {
    None = 0,            //!< no mechanical fix (advice only)
    ForceLdcRef,         //!< pass the argument as an ObjectRef
    NarrowAllowlist,     //!< reinstall filter as observed + slack
    RecategorizeApi,     //!< set the entry's type to the flow type
    DropStaleEntry,      //!< remove a categorization entry with no API
    AdoptCategorization, //!< categorize a registry API that has none
};

/** Repair-kind name ("force-ldc-ref", ...). */
const char *lintRepairKindName(LintRepairKind kind);

/** A proposed repair, concrete enough to apply mechanically. */
struct LintRepair {
    LintRepairKind kind = LintRepairKind::None;
    std::string api;       //!< target API (L1/L3/L4 repairs)
    size_t argIndex = 0;   //!< Blob argument to turn into a Ref (L1)
    uint32_t partition = 0; //!< agent whose filter narrows (L2)
    fw::ApiType newType = fw::ApiType::Unknown; //!< recategorize target
    std::set<osim::Syscall> narrowedAllowlist;  //!< L2 replacement set

    /** One-line human rendering ("narrow filter to 14 syscalls"). */
    std::string describe() const;
};

/** One typed lint finding. */
struct LintFinding {
    LintDefect defect = LintDefect::RegistryInconsistency;
    LintSeverity severity = LintSeverity::Warning;
    /** Stable identity used by the CI baseline: encodes the defect
     *  *content* (e.g. the extra syscall names), so widening an
     *  already-baselined allowlist further yields a NEW key. */
    std::string key;
    std::string subject; //!< API name or agent name
    std::string message;
    LintRepair repair;

    bool repairable() const
    {
        return repair.kind != LintRepairKind::None;
    }
};

/** One agent's syscall posture, unioned across the app replays. */
struct AgentSnapshot {
    uint32_t partition = 0;
    std::string name;                    //!< "Loading", ...
    std::set<osim::Syscall> allowlist;   //!< installed (post-lockdown)
    std::set<osim::Syscall> observed;    //!< actually issued in replays
};

/** One Blob argument observed crossing into an agent. */
struct ValueCrossing {
    std::string api;
    size_t argIndex = 0;
    uint32_t toPartition = 0;
    size_t bytes = 0;
    bool critical = false; //!< matched an annotated host object
    std::string label;     //!< matched object's label ("" if none)
    uint64_t objectId = 0; //!< matched object id (0 if none)
    bool byRef = false;    //!< repaired: crossing now uses a Ref
};

/** Everything the linter consumes, as plain data so fixtures can
 *  plant defects and repairs can be applied without re-replaying. */
struct LintInput {
    const fw::ApiRegistry *registry = nullptr;
    Categorization categorization;
    std::vector<AgentSnapshot> agents;
    std::vector<ValueCrossing> crossings;
    /** APIs reachable from the replayed app traces (empty disables
     *  the unreachable-API check). */
    std::set<std::string> reachableApis;
    size_t appsReplayed = 0;
};

/** Blob arguments below this size are ignored by L1 unless they match
 *  a critical object (scalar-ish payloads, not bulk data). */
constexpr size_t kByValueMinBytes = 4096;

/** Linter knobs. */
struct LintConfig {
    /** Syscalls tolerated in an allowlist even when never observed
     *  (the runtime-infrastructure set the agents need regardless of
     *  which APIs a trace happens to exercise). */
    std::set<osim::Syscall> allowlistSlack;

    LintConfig() : allowlistSlack(defaultAllowlistSlack()) {}

    /** The default slack: FreePart's own infra syscalls. */
    static std::set<osim::Syscall> defaultAllowlistSlack();
};

/** Syscalls whose surplus presence in an allowlist is an Error, not
 *  a Warning: the exfiltration / code-manipulation set (§5.3). */
bool isDangerousSurplusSyscall(osim::Syscall call);

/** A lint run's result. */
struct LintReport {
    std::vector<LintFinding> findings; //!< sorted by (defect, key)

    size_t countByDefect(LintDefect defect) const;
    size_t countAtLeast(LintSeverity severity) const;
    size_t repairableCount() const;
    const LintFinding *findByKey(const std::string &key) const;
};

/** Keys accepted by the checked-in baseline file. */
struct LintBaseline {
    std::set<std::string> acceptedKeys;
};

/** The linter. */
class PartitionLinter
{
  public:
    explicit PartitionLinter(LintConfig config = LintConfig());

    /** Run all four detectors; findings sorted by (defect, key). */
    LintReport lint(const LintInput &input) const;

    /** Apply every repairable finding's repair to the input; returns
     *  the number of repairs applied. */
    size_t applyRepairs(LintInput &input,
                        const LintReport &report) const;

    /**
     * Repair/re-lint loop: apply repairs and re-run until no
     * repairable finding remains (the fixed point) or max_iters is
     * hit. Returns the final report; *iterations (optional) gets the
     * number of repair rounds executed.
     */
    LintReport fixToConvergence(LintInput &input, size_t max_iters = 8,
                                size_t *iterations = nullptr) const;

    const LintConfig &config() const { return config_; }

  private:
    void lintCrossings(const LintInput &input, LintReport &out) const;
    void lintAllowlists(const LintInput &input, LintReport &out) const;
    void lintCategories(const LintInput &input, LintReport &out) const;
    void lintRegistry(const LintInput &input, LintReport &out) const;
    /** Type an API's full data-flow IR implies (Fig. 9 rules after
     *  the §4.2.1 file-copy reduction). */
    fw::ApiType referenceType(const fw::ApiDescriptor &api) const;

    LintConfig config_;
};

// ---- Report / baseline serialization --------------------------------

/**
 * Deterministic JSON rendering of a report: findings sorted, no
 * floats, stable field order. When `baseline` is given, findings
 * whose key it accepts are marked `"baselined": true` and excluded
 * from the `"new"` count.
 */
std::string reportToJson(const LintReport &report,
                         const LintInput &input,
                         const LintBaseline *baseline = nullptr);

/** Render a report's finding keys as a baseline file. */
std::string baselineToJson(const LintReport &report);

/** Parse a baseline file's accepted keys (writer-format tolerant:
 *  extracts every "key" string field). */
LintBaseline parseBaseline(const std::string &json_text);

/** New findings = findings whose key the baseline does not accept. */
std::vector<const LintFinding *>
newFindings(const LintReport &report, const LintBaseline &baseline);

// ---- Collector (replays the Table 6 apps) ---------------------------

/** Collector knobs. */
struct CollectOptions {
    size_t maxApps = 0;      //!< 0 = all 23 Table 6 models
    uint32_t imageRows = 96; //!< fixture frame size (small: the lint
    uint32_t imageCols = 96; //!< cares about *which* syscalls/flows
    uint32_t tensorDim = 32; //!< happen, not how many bytes move)
    uint32_t maxRounds = 2;  //!< replay rounds per app
};

/**
 * Replay the Table 6 app models against fresh FreePart runtimes
 * (default 4-agent plan) and harvest the linter's dynamic inputs:
 * per-agent installed allowlists (post-lockdown) and observed
 * syscall unions, Blob boundary crossings (tapped via the runtime's
 * boundary observer, checksum-matched against annotated host
 * objects), and the set of trace-reachable APIs. Deterministic.
 */
LintInput collectLintInput(const fw::ApiRegistry &registry,
                           const Categorization &categorization,
                           const CollectOptions &options = {});

// ---- Defect planting (fixtures / CLI self-check) --------------------
//
// Each helper injects one synthetic defect of the named class into a
// collected (or hand-built) input, so the detector set and the
// --fix round trip can be exercised against known-bad partitionings.

/** L1: a critical host object's bytes crossing into agent 1. */
void plantByValueCrossing(LintInput &input);

/** L2: add send+write to agent 0's installed allowlist. */
void plantWideAllowlist(LintInput &input);

/** L3: flip the first loading-typed entry to Processing. */
void plantMiscategorization(LintInput &input);

/** L4: add a stale categorization entry for a nonexistent API and
 *  drop one registry API's categorization. */
void plantRegistryInconsistency(LintInput &input);

/** All four, in one call. */
void plantAllDefects(LintInput &input);

} // namespace freepart::analysis

#endif // FREEPART_ANALYSIS_PARTITION_LINT_HH
