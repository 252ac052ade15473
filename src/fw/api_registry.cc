#include "fw/api_registry.hh"

#include "util/logging.hh"

namespace freepart::fw {

uint32_t
ApiRegistry::add(ApiDescriptor desc)
{
    if (index.count(desc.name))
        util::panic("ApiRegistry: duplicate API '%s'",
                    desc.name.c_str());
    desc.id = static_cast<uint32_t>(apis.size());
    index.emplace(desc.name, desc.id);
    apis.push_back(std::move(desc));
    return apis.back().id;
}

const ApiDescriptor &
ApiRegistry::byId(uint32_t id) const
{
    if (id >= apis.size())
        util::panic("ApiRegistry: bad id %u", id);
    return apis[id];
}

const ApiDescriptor *
ApiRegistry::byName(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? nullptr : &apis[it->second];
}

const ApiDescriptor &
ApiRegistry::require(const std::string &name) const
{
    const ApiDescriptor *desc = byName(name);
    if (!desc)
        util::fatal("ApiRegistry: no API named '%s'", name.c_str());
    return *desc;
}

std::vector<const ApiDescriptor *>
ApiRegistry::byFramework(Framework fw) const
{
    std::vector<const ApiDescriptor *> out;
    for (const ApiDescriptor &api : apis)
        if (api.framework == fw)
            out.push_back(&api);
    return out;
}

std::vector<const ApiDescriptor *>
ApiRegistry::vulnerable() const
{
    std::vector<const ApiDescriptor *> out;
    for (const ApiDescriptor &api : apis)
        if (api.hasCves())
            out.push_back(&api);
    return out;
}

ApiRegistry
buildFullRegistry()
{
    ApiRegistry registry;
    registerMiniCv(registry);
    registerMiniDnn(registry);
    return registry;
}

uint64_t
argObjectId(const ipc::ValueList &args, size_t idx)
{
    // A missing argument is the caller's error, typed like any other
    // bad input (the runtime answers it, no host panic).
    if (idx >= args.size())
        util::fatal("argObjectId: index %zu of %zu args", idx,
                    args.size());
    return args[idx].asRef().objectId;
}

ipc::Value
refValue(uint32_t partition, uint64_t object_id)
{
    return ipc::Value(ipc::ObjectRef{partition, object_id});
}

} // namespace freepart::fw
