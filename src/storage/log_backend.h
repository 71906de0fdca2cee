#ifndef NBRAFT_STORAGE_LOG_BACKEND_H_
#define NBRAFT_STORAGE_LOG_BACKEND_H_

#include <functional>

#include "common/status.h"
#include "storage/log_entry.h"

namespace nbraft::storage {

/// The seam between DurableLog's typed record stream and the store that
/// holds the records: the simulated disk (SimDiskBackend). Records staged
/// with Append become durable only once a covering Sync completes; what
/// "durable" means (a virtual-time latency charge, an injected failure) is
/// the backend's business.
class LogBackend {
 public:
  virtual ~LogBackend() = default;

  /// Stages one record. Not durable until a covering Sync completes.
  virtual Status Append(const LogEntry& record) = 0;

  /// Makes every record appended so far durable, then invokes `done` with
  /// the outcome.
  virtual void Sync(std::function<void(Status)> done) = 0;
};

}  // namespace nbraft::storage

#endif  // NBRAFT_STORAGE_LOG_BACKEND_H_
