// The one frame codec and the one durable-file writer behind every byte
// censysim puts on disk or on the replication link.
//
// Frame layout (all integers little-endian). This is the definition the
// WAL, checkpoint, column-segment and shipment docs point to:
//
//   [u32 payload_len][u32 crc32c(payload)][payload]
//
// CRC32C is core/crc32c.h (RFC 3720 Castagnoli). Its users:
//
//   WAL segment      wal-<n>.log: frames back to back, one per record
//                    (storage/wal.h)
//   checkpoint       ckpt-<lsn>.snap: 8-byte magic "CSYSCKPT", then one
//                    frame (storage/wal.h)
//   column segment   seg-<day>.col: one frame holding a CSG1 payload
//                    (query/columnar.h), written by WriteSegmentFile
//   shipment         Shipment::frames: frames back to back, one per
//                    record (replicate/shipment.h)
//
// A reader walks frames with NextFrame. The first frame that is not kOk
// ends the valid prefix, and its status says why: kTorn means the bytes
// stop inside a header or before the declared payload ends (a write that
// never finished); kCorrupt means a whole frame is present but its CRC
// does not match (the bytes changed after they were written).
//
// Whole files go through ReadFile and WriteFileAtomically. The writer
// puts the bytes in `path + ".tmp"`, fsyncs, and renames over `path`,
// checking every call and unlinking the tmp on any failure, so `path`
// holds either its old contents or all of the new bytes.
//
// Fault injection points (core/fault.h), column segments only:
//   "storage.segment.write"  kErrorReturn fails the write cleanly;
//                            kCrash throws CrashException; kBitFlip and
//                            kTornWrite model silent media corruption —
//                            the damaged frame still lands and renames,
//                            and the CRC catches it at read time.
//   "storage.segment.read"   kErrorReturn fails the read; kBitFlip flips
//                            a bit of the read buffer; kTornWrite
//                            truncates the buffer (torn tail); kCrash
//                            throws.
//
// This module and storage/wal.cc (whose segment appender holds an open
// fd) are the only files in src/ allowed raw file I/O (censyslint
// `raw-file-io`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace censys::storage {

enum class FrameStatus : std::uint8_t {
  kOk,       // a whole frame whose CRC matches
  kEnd,      // no bytes left
  kTorn,     // too few bytes left for the header or the declared payload
  kCorrupt,  // a whole frame whose CRC does not match
};

struct Frame {
  FrameStatus status = FrameStatus::kEnd;
  std::string_view payload;  // kOk only
  std::size_t size = 0;      // header + declared payload (kOk, kCorrupt)
};

// Bytes a frame of a `payload_len`-byte payload occupies.
std::size_t FrameSize(std::size_t payload_len);

// Appends `payload`, framed, to `out`.
void AppendFrame(std::string& out, std::string_view payload);

// Reads the frame starting at *offset of `data`. On kOk, *offset moves
// past the frame; otherwise it stays put. Never reads outside `data`.
Frame NextFrame(std::string_view data, std::size_t* offset);

// Reads the whole file at `path` into *out.
bool ReadFile(const std::string& path, std::string* out, std::string* error);

// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
bool WriteAll(int fd, std::string_view bytes, std::string* error);

// tmp → write → fsync → rename, as described above. Returns false with
// *error set when any step fails; `path` is then untouched and no tmp
// file is left behind.
bool WriteFileAtomically(const std::string& path, std::string_view bytes,
                         std::string* error);

// A column segment file: `payload` as one frame, written atomically.
bool WriteSegmentFile(const std::string& path, std::string_view payload,
                      std::string* error);

// Reads and validates a column segment file. Returns the payload, or
// nullopt with *error set when the file is missing, is not exactly one
// frame, or fails its checksum.
std::optional<std::string> ReadSegmentFile(const std::string& path,
                                           std::string* error);

// Whether a segment exists at `path` (no validation — lets callers tell
// "never built" apart from "built but unreadable/corrupt").
bool SegmentFileExists(const std::string& path);

}  // namespace censys::storage
