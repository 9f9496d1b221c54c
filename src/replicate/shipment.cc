#include "replicate/shipment.h"

#include "storage/frame.h"

namespace censys::replicate {

Shipment EncodeShipment(std::uint64_t prev_lsn,
                        const std::vector<storage::WalRecord>& records) {
  Shipment shipment;
  shipment.prev_lsn = prev_lsn;
  shipment.last_lsn = records.empty() ? prev_lsn : records.back().lsn;
  for (const storage::WalRecord& record : records) {
    storage::AppendFrame(shipment.frames, storage::EncodeWalPayload(record));
  }
  return shipment;
}

DecodedShipment DecodeShipment(const Shipment& shipment) {
  DecodedShipment decoded;
  const std::string& data = shipment.frames;
  std::size_t offset = 0;
  for (;;) {
    std::size_t next = offset;
    const storage::Frame frame = storage::NextFrame(data, &next);
    if (frame.status == storage::FrameStatus::kEnd ||
        frame.status == storage::FrameStatus::kTorn) {
      break;
    }
    const auto record = frame.status == storage::FrameStatus::kOk
                            ? storage::DecodeWalPayload(frame.payload)
                            : std::nullopt;
    if (!record.has_value()) {
      ++decoded.corrupt_frames;
      break;
    }
    decoded.records.push_back(*record);
    offset = next;
  }
  decoded.truncated_bytes += data.size() - offset;
  return decoded;
}

}  // namespace censys::replicate
