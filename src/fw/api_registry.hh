/**
 * @file
 * The framework API registry: every MiniCV / MiniDNN API with its
 * ground-truth metadata (data-flow IR for the static analyzer,
 * syscall profile, statefulness, type-neutrality, CVE annotations)
 * and — for implemented APIs — an executable body. This is the
 * analogue of the framework symbol tables FreePart hooks via
 * LD_PRELOAD (§4.3).
 */

#ifndef FREEPART_FW_API_REGISTRY_HH
#define FREEPART_FW_API_REGISTRY_HH

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fw/api_types.hh"
#include "fw/exec_context.hh"
#include "ipc/codec.hh"
#include "osim/syscalls.hh"

namespace freepart::fw {

struct ApiDescriptor;

/**
 * Executable API body. Object arguments arrive as ipc Refs already
 * materialized in the executing process's ObjectStore; scalars and
 * strings arrive by value. Returns results with the same convention.
 */
using ApiFn = std::function<ipc::ValueList(
    ExecContext &, const ApiDescriptor &, const ipc::ValueList &)>;

/** Metadata + body of one framework API. */
struct ApiDescriptor {
    uint32_t id = 0;            //!< registry-assigned id
    std::string name;           //!< e.g. "cv2.imread"
    Framework framework = Framework::OpenCV;
    ApiType declaredType = ApiType::Processing; //!< ground truth
    std::vector<FlowOp> ir;     //!< static data-flow IR (Fig. 8)
    std::set<osim::Syscall> syscalls; //!< required syscalls (§4.4.1)
    bool stateful = false;      //!< keeps cross-call state (A.2.4)
    bool typeNeutral = false;   //!< context-typed utility (§4.2)
    std::vector<std::string> cves; //!< CVEs exploitable via this API
    ApiFn fn;                   //!< body; empty for modeled-only APIs

    bool implemented() const { return static_cast<bool>(fn); }
    bool hasCves() const { return !cves.empty(); }
};

/** Name-indexed table of ApiDescriptors. */
class ApiRegistry
{
  public:
    /** Register an API; returns the assigned id. */
    uint32_t add(ApiDescriptor desc);

    /** Look up by id; panics on unknown. */
    const ApiDescriptor &byId(uint32_t id) const;

    /** Look up by name; nullptr if absent. */
    const ApiDescriptor *byName(const std::string &name) const;

    /** Look up by name; panics if absent. */
    const ApiDescriptor &require(const std::string &name) const;

    size_t size() const { return apis.size(); }

    const std::vector<ApiDescriptor> &all() const { return apis; }

    /** All APIs belonging to one framework. */
    std::vector<const ApiDescriptor *>
    byFramework(Framework fw) const;

    /** All APIs carrying at least one CVE annotation. */
    std::vector<const ApiDescriptor *> vulnerable() const;

  private:
    std::vector<ApiDescriptor> apis;
    std::map<std::string, uint32_t> index;
};

/** Register all MiniCV (OpenCV-analogue) APIs. */
void registerMiniCv(ApiRegistry &registry);

/** Register all MiniDNN (Caffe/PyTorch/TensorFlow-analogue) APIs. */
void registerMiniDnn(ApiRegistry &registry);

/** Registry with both MiniCV and MiniDNN registered. */
ApiRegistry buildFullRegistry();

// ---- Argument helpers used by API bodies ----------------------------

/** Extract an object id from a Ref argument at index idx; a missing
 *  argument throws util::FatalError. */
uint64_t argObjectId(const ipc::ValueList &args, size_t idx);

/** Build a Ref value for an object in the given partition. */
ipc::Value refValue(uint32_t partition, uint64_t object_id);

} // namespace freepart::fw

#endif // FREEPART_FW_API_REGISTRY_HH
