#include "storage/block_device.h"

namespace streamlake::storage {

BlockDevice::BlockDevice(uint32_t id, uint32_t node_id,
                         uint64_t capacity_bytes, sim::MediaType media,
                         sim::SimClock* clock)
    : id_(id),
      node_id_(node_id),
      capacity_(capacity_bytes),
      media_(media),
      model_(sim::DeviceProfile::ForMedia(media), clock) {}

Status BlockDevice::Write(uint64_t offset, ByteView data) {
  if (failed_.load()) {
    return Status::IOError("disk " + std::to_string(id_) + " failed");
  }
  if (offset + data.size() > capacity_) {
    return Status::ResourceExhausted("disk " + std::to_string(id_) +
                                     " write past capacity");
  }
  {
    MutexLock lock(&mu_);
    uint64_t pos = 0;
    while (pos < data.size()) {
      uint64_t region = (offset + pos) / kRegionSize;
      uint64_t in_region = (offset + pos) % kRegionSize;
      uint64_t len =
          std::min<uint64_t>(kRegionSize - in_region, data.size() - pos);
      Bytes& storage = regions_[region];
      const uint64_t end =
          (in_region + len + kPageSize - 1) / kPageSize * kPageSize;
      if (storage.size() < end) {
        // Grow geometrically, but never past the region.
        storage.reserve(
            std::min(kRegionSize, std::max<uint64_t>(end, 2 * storage.size())));
        storage.resize(end);
      }
      std::memcpy(storage.data() + in_region, data.data() + pos, len);
      pos += len;
    }
  }
  model_.ChargeWrite(data.size());
  return Status::OK();
}

Result<Bytes> BlockDevice::Read(uint64_t offset, uint64_t length) const {
  if (failed_.load()) {
    return Status::IOError("disk " + std::to_string(id_) + " failed");
  }
  if (offset + length > capacity_) {
    return Status::InvalidArgument("read past end of disk " +
                                   std::to_string(id_));
  }
  Bytes out(length, 0);
  {
    MutexLock lock(&mu_);
    uint64_t pos = 0;
    while (pos < length) {
      uint64_t region = (offset + pos) / kRegionSize;
      uint64_t in_region = (offset + pos) % kRegionSize;
      uint64_t len = std::min<uint64_t>(kRegionSize - in_region, length - pos);
      auto it = regions_.find(region);
      if (it != regions_.end() && it->second.size() > in_region) {
        std::memcpy(out.data() + pos, it->second.data() + in_region,
                    std::min<uint64_t>(len, it->second.size() - in_region));
      }
      // Unwritten bytes read back as zeros (thin provisioning).
      pos += len;
    }
  }
  model_.ChargeRead(length);
  return out;
}

void BlockDevice::Reset() {
  MutexLock lock(&mu_);
  regions_.clear();
  failed_.store(false);
}

uint64_t BlockDevice::resident_bytes() const {
  MutexLock lock(&mu_);
  uint64_t bytes = 0;
  for (const auto& [region, storage] : regions_) bytes += storage.capacity();
  return bytes;
}

}  // namespace streamlake::storage
