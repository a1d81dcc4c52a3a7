#include "report/result_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>

#include "support/hash.h"

namespace jsceres::report {

ResultStore::ResultStore(std::string root_dir) : root_(std::move(root_dir)) {
  std::filesystem::create_directories(root_);
}

std::uint64_t ResultStore::content_hash(const std::string& content) {
  return fnv1a(std::as_bytes(std::span(content)));
}

std::string ResultStore::store(const std::string& name, const std::string& content) {
  char suffix[20];
  std::snprintf(suffix, sizeof suffix, "%08llx",
                static_cast<unsigned long long>(content_hash(content) & 0xffffffffULL));
  const std::string file_name = name + "-" + suffix + ".txt";
  const std::filesystem::path path = std::filesystem::path(root_) / file_name;
  if (!std::filesystem::exists(path)) {
    std::ofstream out(path);
    out << content;
  }
  {
    std::ofstream index(std::filesystem::path(root_) / "index.md", std::ios::app);
    index << "- [" << name << "](" << file_name << ")\n";
  }
  entries_.push_back(path.string());
  return path.string();
}

}  // namespace jsceres::report
