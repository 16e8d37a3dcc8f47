#ifndef STREAMLAKE_STORAGE_BLOCK_DEVICE_H_
#define STREAMLAKE_STORAGE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/result.h"
#include "sim/device_model.h"

namespace streamlake::storage {

/// One simulated disk: an in-memory byte array whose I/O is charged to a
/// sim::DeviceModel. Supports fault injection (a failed disk rejects all
/// I/O) for redundancy/recovery tests — this is the substitute for the
/// physical disks of an OceanStor node (see DESIGN.md).
class BlockDevice {
 public:
  /// `node_id` records which cluster node the disk belongs to so placement
  /// can spread redundancy across nodes.
  BlockDevice(uint32_t id, uint32_t node_id, uint64_t capacity_bytes,
              sim::MediaType media, sim::SimClock* clock);

  uint32_t id() const { return id_; }
  uint32_t node_id() const { return node_id_; }
  sim::MediaType media() const { return media_; }
  uint64_t capacity() const { return capacity_; }

  Status Write(uint64_t offset, ByteView data);
  Result<Bytes> Read(uint64_t offset, uint64_t length) const;

  /// Fault injection: a failed disk errors on every read and write.
  void SetFailed(bool failed) { failed_.store(failed); }
  bool failed() const { return failed_.load(); }

  /// Wipe contents (models disk replacement after failure).
  void Reset();

  /// Host memory allocated for the disk's contents. Simulated I/O charges
  /// never depend on it.
  uint64_t resident_bytes() const;

  const sim::DeviceModel& device_model() const { return model_; }
  sim::DeviceModel* mutable_device_model() { return &model_; }

 private:
  // Contents are stored sparsely, one buffer per 64 KiB region: a fresh
  // 16 TB disk costs nothing until written, and writes at high extent
  // offsets stay O(size). A region's buffer runs from the region start to
  // its last written byte, rounded up to a 4 KiB page, so a small append to
  // a fresh extent holds a page of host memory, not a whole region, while a
  // filled region stays one contiguous buffer that reads copy at memory
  // speed (separate 4 KiB buffers read about a third slower).
  static constexpr uint64_t kRegionSize = 64 * 1024;
  static constexpr uint64_t kPageSize = 4 * 1024;

  uint32_t id_;
  uint32_t node_id_;
  uint64_t capacity_;
  sim::MediaType media_;
  mutable sim::DeviceModel model_;
  std::atomic<bool> failed_{false};
  mutable Mutex mu_{LockRank::kBlockDevice, "storage.block_device"};
  std::unordered_map<uint64_t, Bytes> regions_
      GUARDED_BY(mu_);  // region index -> written prefix, whole pages
};

}  // namespace streamlake::storage

#endif  // STREAMLAKE_STORAGE_BLOCK_DEVICE_H_
