// WAL shipment wire format (leader -> follower).
//
// A shipment is one contiguous run of leader WAL records, re-framed
// exactly as the on-disk log frames them (storage/frame.h), covering
// (prev_lsn, last_lsn]. The frames travel a simulated link
// that can lose, reorder, corrupt, or truncate them ("replicate.ship"
// fault point, armed by the chaos tests), so the decoder validates every
// frame and stops at the first torn or corrupt one — the valid prefix is
// still usable, exactly like a torn log tail. The follower applies a
// shipment only when prev_lsn <= its applied LSN and the records chain
// contiguously; anything else is NACKed and re-requested.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/wal.h"

namespace censys::replicate {

struct Shipment {
  std::uint64_t prev_lsn = 0;  // the LSN this run extends
  std::uint64_t last_lsn = 0;  // LSN of the last framed record
  std::string frames;          // CRC32C-framed record payloads
};

// Frames `records` (which must be contiguous, starting at prev_lsn + 1)
// into a shipment.
Shipment EncodeShipment(std::uint64_t prev_lsn,
                        const std::vector<storage::WalRecord>& records);

struct DecodedShipment {
  std::vector<storage::WalRecord> records;  // the valid prefix
  std::uint64_t corrupt_frames = 0;   // 1 when a bad frame cut the decode
  std::uint64_t truncated_bytes = 0;  // bytes dropped after the cut
};

// Validates and decodes; never throws. A CRC/decode failure or torn tail
// ends the decode, reported via corrupt_frames / truncated_bytes.
DecodedShipment DecodeShipment(const Shipment& shipment);

}  // namespace censys::replicate
