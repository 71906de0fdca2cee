#ifndef NBRAFT_OBS_OUTPUT_FILE_H_
#define NBRAFT_OBS_OUTPUT_FILE_H_

#include <cstdio>
#include <string>

#include "common/status.h"

namespace nbraft::obs {

/// A stdio file opened for writing one output file. Close() is the checked
/// end of a write; the destructor closes an unfinished file unchecked (the
/// early-return paths, which already report an error).
class OutputFile {
 public:
  explicit OutputFile(const std::string& path)
      : path_(path), f_(std::fopen(path.c_str(), "w")) {}
  ~OutputFile() {
    if (f_ != nullptr) std::fclose(f_);
  }

  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  /// The open stream; nullptr when fopen failed.
  std::FILE* get() const { return f_; }

  /// Flushes stdio's buffer, checks the stream's error flag and fclose's
  /// result, and returns IoError if any failed: a full disk usually
  /// surfaces only at the flush.
  Status Close() {
    bool ok = std::fflush(f_) == 0 && std::ferror(f_) == 0;
    ok = std::fclose(f_) == 0 && ok;
    f_ = nullptr;
    return ok ? Status::Ok() : Status::IoError("write failed for " + path_);
  }

 private:
  std::string path_;
  std::FILE* f_;
};

}  // namespace nbraft::obs

#endif  // NBRAFT_OBS_OUTPUT_FILE_H_
