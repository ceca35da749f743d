#include "manifest.hh"

#include "common/logging.hh"
#include "stats/json.hh"

#ifndef SOS_GIT_REV
#define SOS_GIT_REV "unknown"
#endif

namespace sos::stats {

std::string
Manifest::buildGitRev()
{
    return SOS_GIT_REV;
}

std::string
renderManifest(const Manifest &manifest, const Registry &registry)
{
    std::string out;
    JsonWriter json(&out);
    json.beginObject();
    json.key("schema");
    json.string(Manifest::schemaName());
    json.key("schema_version");
    json.number(Manifest::schemaVersion);
    json.key("tool");
    json.string(manifest.tool);
    json.key("git_rev");
    json.string(manifest.gitRev);
    json.key("seed");
    json.number(manifest.seed);
    json.key("config");
    json.beginObject();
    for (const auto &[key, value] : manifest.config) {
        json.key(key);
        json.string(value);
    }
    json.endObject();
    json.key("stats");
    writeJsonTree(registry, json);
    json.endObject();
    SOS_ASSERT(json.complete());
    out += '\n';
    return out;
}

void
writeManifestFile(const std::string &path, const Manifest &manifest,
                  const Registry &registry)
{
    writeFileOrFatal(path, renderManifest(manifest, registry),
                     "manifest");
}

} // namespace sos::stats
