#include "core/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "factor/io.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace dd {

Status RunDirectory::Create() const {
  if (mkdir(path_.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + path_ + ": " + std::strerror(errno));
  }
  struct stat st;
  if (stat(path_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IoError("run directory path is not a directory: " + path_);
  }
  return Status::OK();
}

bool RunDirectory::HasManifest() const { return FileExists(ManifestPath()); }

Status RunDirectory::WriteManifest(
    const std::map<std::string, std::string>& kv) const {
  Status injected;
  DD_FAILPOINT("checkpoint.manifest", &injected);
  if (!injected.ok()) return injected;
  GraphSnapshot snap;
  snap.meta = kv;
  snap.meta["kind"] = "pipeline-manifest";
  return WriteGraphSnapshot(snap, ManifestPath());
}

Result<std::map<std::string, std::string>> RunDirectory::ReadManifest() const {
  DD_ASSIGN_OR_RETURN(GraphSnapshot snap,
                      ReadGraphSnapshot(ManifestPath(), /*max_variables=*/0));
  auto kind = snap.meta.find("kind");
  if (kind == snap.meta.end() || kind->second != "pipeline-manifest") {
    return Status::InvalidArgument("not a pipeline manifest: " + ManifestPath());
  }
  return snap.meta;
}

Status RunDirectory::Clear() const {
  for (const std::string& path :
       {ManifestPath(), LearnSnapshotPath(), InferenceSnapshotPath()}) {
    if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError("remove " + path + ": " + std::strerror(errno));
    }
  }
  return ClearShardSnapshots();
}

Status RunDirectory::ClearShardSnapshots() const {
  DIR* dir = opendir(path_.c_str());
  if (dir == nullptr) {
    return Status::IoError("opendir " + path_ + ": " + std::strerror(errno));
  }
  Status status;
  while (struct dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind("shard", 0) != 0 || name.size() < 11 ||
        name.compare(name.size() - 5, 5, ".snap") != 0) {
      continue;
    }
    const std::string path = path_ + "/" + name;
    if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
      status = Status::IoError("remove " + path + ": " + std::strerror(errno));
      break;
    }
  }
  closedir(dir);
  return status;
}

uint32_t GraphFingerprint(const FactorGraph& graph) {
  std::string text = SerializeGraph(graph);
  return Crc32c(text.data(), text.size());
}

}  // namespace dd
