#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "core/fault.h"
#include "core/trace.h"
#include "storage/frame.h"
#include "storage/serialize.h"

namespace censys::storage {
namespace {

namespace fs = std::filesystem;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".snap";
constexpr char kCheckpointMagic[8] = {'C', 'S', 'Y', 'S', 'C', 'K', 'P', 'T'};
void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::string EncodeWalPayload(const WalRecord& record) {
  std::string out;
  PutVarint(out, record.lsn);
  out.push_back(static_cast<char>(record.kind));
  PutVarint(out, static_cast<std::uint64_t>(record.at.minutes));
  PutLengthPrefixed(out, record.entity);
  PutLengthPrefixed(out, record.delta.Encode());
  return out;
}

std::optional<WalRecord> DecodeWalPayload(std::string_view payload) {
  WalRecord record;
  std::size_t pos = 0;
  const auto lsn = GetVarint(payload, &pos);
  if (!lsn.has_value()) return std::nullopt;
  record.lsn = *lsn;
  if (pos >= payload.size()) return std::nullopt;
  record.kind = static_cast<std::uint8_t>(payload[pos++]);
  const auto minutes = GetVarint(payload, &pos);
  if (!minutes.has_value()) return std::nullopt;
  record.at = Timestamp{static_cast<std::int64_t>(*minutes)};
  const auto entity = GetLengthPrefixed(payload, &pos);
  if (!entity.has_value()) return std::nullopt;
  record.entity = std::string(*entity);
  const auto delta_bytes = GetLengthPrefixed(payload, &pos);
  if (!delta_bytes.has_value() || pos != payload.size()) return std::nullopt;
  const auto delta = Delta::Decode(*delta_bytes);
  if (!delta.has_value()) return std::nullopt;
  record.delta = *delta;
  return record;
}

WriteAheadLog::WriteAheadLog(Options options) : options_(std::move(options)) {}

WriteAheadLog::~WriteAheadLog() {
  const core::MutexLock lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

void WriteAheadLog::BindMetrics(metrics::Registry* registry) {
  appends_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.appends");
  batch_appends_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.batch_appends");
  bytes_metric_ = metrics::BindCounter(registry, "censys.storage.wal.bytes");
  fsyncs_metric_ = metrics::BindCounter(registry, "censys.storage.wal.fsyncs");
  rotations_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.rotations");
  checkpoints_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.checkpoints");
  truncations_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.truncated_bytes");
  replayed_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.replayed");
}

std::string WriteAheadLog::SegmentPath(std::uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return (fs::path(options_.dir) / name).string();
}

std::string WriteAheadLog::CheckpointPath(std::uint64_t lsn) const {
  char name[48];
  std::snprintf(name, sizeof(name), "%s%020llu%s", kCheckpointPrefix,
                static_cast<unsigned long long>(lsn), kCheckpointSuffix);
  return (fs::path(options_.dir) / name).string();
}

std::vector<std::uint64_t> WriteAheadLog::ListSegmentIndexes() const {
  std::vector<std::uint64_t> indexes;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0 ||
        name.size() <= std::strlen(kSegmentPrefix) +
                           std::strlen(kSegmentSuffix) ||
        name.compare(name.size() - std::strlen(kSegmentSuffix),
                     std::strlen(kSegmentSuffix), kSegmentSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kSegmentPrefix),
                    name.size() - std::strlen(kSegmentPrefix) -
                        std::strlen(kSegmentSuffix));
    indexes.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(indexes.begin(), indexes.end());
  return indexes;
}

bool WriteAheadLog::ScanSegment(
    const std::string& path, bool truncate,
    const std::function<void(const WalRecord&)>& visit, ReplayStats* stats,
    std::uint64_t* valid_bytes, std::string* error) {
  std::string data;
  if (!ReadFile(path, &data, error)) return false;

  std::size_t offset = 0;
  bool corrupt = false;
  for (;;) {
    std::size_t next = offset;
    Frame frame = NextFrame(data, &next);
    if (frame.status == FrameStatus::kEnd ||
        frame.status == FrameStatus::kTorn) {
      break;
    }

    // The read-path injection point: a fault here simulates media errors
    // on this record's bytes.
    if (const auto fault = fault::Hit("storage.wal.read")) {
      switch (fault->mode) {
        case fault::Mode::kCrash:
          throw fault::CrashException{"storage.wal.read"};
        case fault::Mode::kErrorReturn:
        case fault::Mode::kStall:
          // Unreadable sector: everything from here on is lost.
          corrupt = true;
          break;
        default: {
          // Any corruption mode: one bit of this record's bytes flips. A
          // flipped header bit always cuts the log (the length or CRC no
          // longer matches what was read); a flipped payload bit is
          // judged by the CRC.
          const std::size_t bit =
              fault::FlipBit(&data[offset], frame.size, fault->bit);
          if (bit < FrameSize(0) * 8) {
            corrupt = true;
            break;
          }
          next = offset;
          frame = NextFrame(data, &next);
          break;
        }
      }
      if (corrupt) break;
    }

    const auto record = frame.status == FrameStatus::kOk
                            ? DecodeWalPayload(frame.payload)
                            : std::nullopt;
    if (!record.has_value()) {
      corrupt = true;
      break;
    }
    if (visit) visit(*record);
    if (stats != nullptr) ++stats->records;
    offset = next;
  }

  const std::uint64_t file_size = data.size();
  *valid_bytes = offset;
  if (offset < file_size) {
    if (stats != nullptr) {
      stats->truncated_bytes += file_size - offset;
      if (corrupt) ++stats->corrupt_records;
    }
    // Read-only scans (tail shipping) report the torn tail but leave the
    // file alone: the writer may still be appending the very frame this
    // reader saw half of.
    if (!truncate) return true;
    // Torn or corrupt tail: truncate the file to the last whole record so
    // future appends land on a record boundary.
    truncated_bytes_.fetch_add(file_size - offset, std::memory_order_relaxed);
    if (corrupt) corrupt_records_.fetch_add(1, std::memory_order_relaxed);
    truncations_metric_.Add(file_size - offset);
    std::error_code ec;
    fs::resize_file(path, offset, ec);
    if (ec) {
      SetError(error, path + ": truncate failed: " + ec.message());
      return false;
    }
  }
  return true;
}

bool WriteAheadLog::Open(std::string* error) {
  const core::MutexLock lock(mu_);
  return OpenLocked(error);
}

bool WriteAheadLog::OpenLocked(std::string* error) {
  if (opened_) return true;
  if (options_.dir.empty()) {
    SetError(error, "wal: no directory configured");
    return false;
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    SetError(error, options_.dir + ": " + ec.message());
    return false;
  }

  segments_.clear();
  const std::vector<std::uint64_t> indexes = ListSegmentIndexes();
  std::uint64_t tail_offset = 0;
  bool log_cut = false;
  for (const std::uint64_t index : indexes) {
    if (log_cut) {
      // A corrupt record invalidates everything after it: later segments
      // are dropped wholesale.
      std::error_code rm_ec;
      const auto size = fs::file_size(SegmentPath(index), rm_ec);
      if (!rm_ec) {
        truncations_metric_.Add(size);
        truncated_bytes_.fetch_add(size, std::memory_order_relaxed);
      }
      fs::remove(SegmentPath(index), rm_ec);
      segments_removed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Segment segment;
    segment.index = index;
    ReplayStats stats;
    std::uint64_t valid_bytes = 0;
    const bool ok = ScanSegment(
        SegmentPath(index), /*truncate=*/true,
        [&](const WalRecord& record) {
          if (segment.first_lsn == 0) segment.first_lsn = record.lsn;
          const std::uint64_t next =
              next_lsn_.load(std::memory_order_relaxed);
          if (record.lsn >= next) {
            next_lsn_.store(record.lsn + 1, std::memory_order_relaxed);
          }
        },
        &stats, &valid_bytes, error);
    if (!ok) return false;
    if (stats.truncated_bytes > 0) log_cut = true;
    tail_offset = valid_bytes;
    segments_.push_back(segment);
  }
  if (segments_.empty()) {
    Segment segment;
    segment.index = 0;
    segments_.push_back(segment);
    tail_offset = 0;
  }

  const std::string active = SegmentPath(segments_.back().index);
  fd_ = ::open(active.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    SetError(error, active + ": " + std::strerror(errno));
    return false;
  }
  if (::lseek(fd_, static_cast<off_t>(tail_offset), SEEK_SET) < 0) {
    SetError(error, active + ": " + std::strerror(errno));
    return false;
  }
  segment_offset_ = tail_offset;
  opened_ = true;
  return true;
}

bool WriteAheadLog::SyncLocked(std::string* error) {
  TRACE_SPAN("storage", "wal.fsync");
  if (const auto fault = fault::Hit("storage.wal.fsync")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.wal.fsync"};
      default:
        SetError(error, "wal fsync: injected failure");
        return false;
    }
  }
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    SetError(error, std::string("wal fsync: ") + std::strerror(errno));
    return false;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  fsyncs_metric_.Add();
  return true;
}

bool WriteAheadLog::RotateLocked(std::string* error) {
  if (!SyncLocked(error)) return false;
  ::close(fd_);
  fd_ = -1;
  Segment segment;
  segment.index = segments_.back().index + 1;
  const std::string path = SegmentPath(segment.index);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    SetError(error, path + ": " + std::strerror(errno));
    return false;
  }
  segments_.push_back(segment);
  segment_offset_ = 0;
  rotations_.fetch_add(1, std::memory_order_relaxed);
  rotations_metric_.Add();
  return true;
}

bool WriteAheadLog::Append(WalRecord& record, std::string* error) {
  TRACE_SPAN("storage", "wal.append");
  const core::MutexLock lock(mu_);
  return AppendLocked(std::span<WalRecord>(&record, 1), error);
}

bool WriteAheadLog::AppendBatch(std::vector<WalRecord>& records,
                                std::string* error) {
  if (records.empty()) return true;
  TRACE_SPAN_VAR(span, "storage", "wal.append_batch");
  span.SetArg("records", std::to_string(records.size()));
  const core::MutexLock lock(mu_);
  if (!AppendLocked(records, error)) return false;
  batch_appends_.fetch_add(1, std::memory_order_relaxed);
  batch_appends_metric_.Add();
  return true;
}

bool WriteAheadLog::AppendLocked(std::span<WalRecord> records,
                                 std::string* error) {
  if (!opened_ && !OpenLocked(error)) return false;

  // Frame every record first. Fault points fire per record, exactly as
  // they would for N serial Appends: an error-return rejects the batch
  // before a single byte is written (nothing durable, nothing applied); a
  // crash/torn-write loses at most the batch's buffered tail, which
  // recovery truncates back to a record boundary.
  const std::uint64_t first_lsn = next_lsn_.load(std::memory_order_relaxed);
  std::string buffer;
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].lsn = first_lsn + i;
    const std::size_t start = buffer.size();
    AppendFrame(buffer, EncodeWalPayload(records[i]));
    if (const auto fault = fault::Hit("storage.wal.append")) {
      switch (fault->mode) {
        case fault::Mode::kErrorReturn:
        default:
          SetError(error, "wal append: injected failure");
          return false;
        case fault::Mode::kCrash:
          throw fault::CrashException{"storage.wal.append"};
        case fault::Mode::kTornWrite: {
          // The write dies mid-flight: everything framed before this
          // record plus a prefix of its frame reaches the medium, then the
          // process dies. Recovery must drop the partial record.
          buffer.resize(start + fault::TornLength(buffer.size() - start,
                                                  fault->tear_frac));
          std::string ignored;
          WriteAll(fd_, buffer, &ignored);
          throw fault::CrashException{"storage.wal.append"};
        }
        case fault::Mode::kBitFlip:
          // Silent corruption on the way to the medium; CRC validation
          // catches it at recovery time.
          fault::FlipBit(&buffer[start], buffer.size() - start, fault->bit);
          break;
      }
    }
  }

  if (segment_offset_ > 0 &&
      segment_offset_ + buffer.size() > options_.segment_bytes) {
    if (!RotateLocked(error)) return false;
  }
  if (!WriteAll(fd_, buffer, error)) return false;
  segment_offset_ += buffer.size();
  if (segments_.back().first_lsn == 0) {
    segments_.back().first_lsn = first_lsn;
  }
  if (options_.fsync_each) {
    // One fsync for the whole batch — the point of group commit.
    if (!SyncLocked(error)) {
      // The bytes may or may not be durable; withdraw them so the
      // in-memory journal (which will not apply these events) and the
      // log cannot diverge.
      segment_offset_ -= buffer.size();
      ::ftruncate(fd_, static_cast<off_t>(segment_offset_));
      ::lseek(fd_, static_cast<off_t>(segment_offset_), SEEK_SET);
      return false;
    }
  }

  next_lsn_.fetch_add(records.size(), std::memory_order_relaxed);
  appended_records_.fetch_add(records.size(), std::memory_order_relaxed);
  appended_bytes_.fetch_add(buffer.size(), std::memory_order_relaxed);
  appends_metric_.Add(records.size());
  bytes_metric_.Add(buffer.size());
  return true;
}

bool WriteAheadLog::Sync(std::string* error) {
  const core::MutexLock lock(mu_);
  if (!opened_) return true;
  return SyncLocked(error);
}

bool WriteAheadLog::ScanRange(
    std::uint64_t from_lsn, std::uint64_t end_lsn, std::size_t max_records,
    bool truncate, const std::function<void(const WalRecord&)>& visit,
    ReplayStats* stats, std::string* error) {
  std::vector<Segment> segments;
  {
    const core::MutexLock lock(mu_);
    if (!opened_ && !OpenLocked(error)) return false;
    segments = segments_;
  }
  // The scan itself runs unlocked. The recovery path is startup-only (it
  // must not race Append), and the journal's visitor re-enters the shard
  // locks — holding mu_ across it would invert the shard-lock -> wal-lock
  // order the append path establishes. Read-only tail scans tolerate a
  // racing appender by construction (a half-written final frame just ends
  // the scan).
  ReplayStats local;
  ReplayStats* out = stats != nullptr ? stats : &local;
  bool done = false;
  for (std::size_t i = 0; i < segments.size() && !done; ++i) {
    // A segment is fully covered by from_lsn when its successor's first
    // record — which bounds every lsn it holds — is already at or below
    // from_lsn + 1. Open() scanned these files once; skipping them here
    // is what removed Recover()'s duplicate segment open.
    if (i + 1 < segments.size() && segments[i + 1].first_lsn != 0 &&
        segments[i + 1].first_lsn <= from_lsn + 1) {
      continue;
    }
    std::uint64_t valid_bytes = 0;
    ReplayStats scan;
    const bool ok = ScanSegment(
        SegmentPath(segments[i].index), truncate,
        [&](const WalRecord& record) {
          if (done) return;
          if (record.lsn <= from_lsn) {
            ++out->skipped;
            return;
          }
          if (record.lsn > end_lsn ||
              (max_records > 0 && out->records >= max_records)) {
            done = true;
            return;
          }
          ++out->records;
          if (visit) visit(record);
        },
        &scan, &valid_bytes, error);
    if (!ok) return false;
    out->corrupt_records += scan.corrupt_records;
    out->truncated_bytes += scan.truncated_bytes;
    if (scan.truncated_bytes > 0) break;  // log cut: stop here
  }
  return true;
}

bool WriteAheadLog::Replay(
    std::uint64_t from_lsn,
    const std::function<void(const WalRecord&)>& visit, ReplayStats* stats,
    std::string* error) {
  TRACE_SPAN("storage", "wal.replay");
  return ScanRange(from_lsn, std::numeric_limits<std::uint64_t>::max(), 0,
                   /*truncate=*/true,
                   [&](const WalRecord& record) {
                     replayed_metric_.Add();
                     if (visit) visit(record);
                   },
                   stats, error);
}

bool WriteAheadLog::ReadTail(std::uint64_t from_lsn, std::uint64_t end_lsn,
                             std::size_t max_records,
                             std::vector<WalRecord>* out, std::string* error) {
  return ScanRange(from_lsn, end_lsn, max_records, /*truncate=*/false,
                   [&](const WalRecord& record) { out->push_back(record); },
                   nullptr, error);
}

std::uint64_t WriteAheadLog::oldest_lsn() const {
  const core::MutexLock lock(mu_);
  for (const Segment& segment : segments_) {
    if (segment.first_lsn != 0) return segment.first_lsn;
  }
  return 0;
}

bool WriteAheadLog::WriteCheckpoint(std::uint64_t lsn,
                                    std::string_view payload,
                                    std::string* error) {
  TRACE_SPAN("storage", "wal.checkpoint");
  const core::MutexLock lock(mu_);
  if (!opened_ && !OpenLocked(error)) return false;

  // Make the log itself durable up to the state the checkpoint covers
  // before the checkpoint can supersede it.
  if (!SyncLocked(error)) return false;

  std::string file(kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendFrame(file, payload);
  const std::string final_path = CheckpointPath(lsn);

  if (const auto fault = fault::Hit("storage.wal.append")) {
    switch (fault->mode) {
      case fault::Mode::kErrorReturn:
      default:
        SetError(error, "wal checkpoint: injected failure");
        return false;
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.wal.append"};
      case fault::Mode::kTornWrite: {
        // Die with a partial temp file on disk; recovery ignores *.tmp.
        const std::string tmp = final_path + ".tmp";
        const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd >= 0) {
          std::string ignored;
          WriteAll(fd,
                   std::string_view(file).substr(
                       0, fault::TornLength(file.size(), fault->tear_frac)),
                   &ignored);
          ::close(fd);
        }
        throw fault::CrashException{"storage.wal.append"};
      }
      case fault::Mode::kBitFlip:
        fault::FlipBit(&file[sizeof(kCheckpointMagic)],
                       file.size() - sizeof(kCheckpointMagic), fault->bit);
        break;
    }
  }
  // The checkpoint's own fsync point fires before the file is written, so
  // a failed checkpoint leaves neither a tmp file nor a new checkpoint.
  if (const auto fault = fault::Hit("storage.wal.fsync")) {
    if (fault->mode == fault::Mode::kCrash) {
      throw fault::CrashException{"storage.wal.fsync"};
    }
    SetError(error, "wal checkpoint fsync: injected failure");
    return false;
  }
  if (!WriteFileAtomically(final_path, file, error)) return false;
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  fsyncs_metric_.Add();
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  checkpoints_metric_.Add();

  // Prune old checkpoints beyond the retention count, then drop segments
  // the new checkpoint fully covers ("snapshots bound replay").
  std::vector<std::uint64_t> lsns = ListCheckpoints();
  std::error_code ec;
  for (std::size_t i = options_.keep_checkpoints; i < lsns.size(); ++i) {
    fs::remove(CheckpointPath(lsns[i]), ec);
  }
  RemoveSegmentsBelowLocked(lsn);
  return true;
}

void WriteAheadLog::RemoveSegmentsBelowLocked(std::uint64_t lsn) {
  // A closed segment is removable when its successor's first record —
  // which bounds every lsn it holds — is already covered by `lsn`.
  while (segments_.size() > 1) {
    const Segment& next = segments_[1];
    if (next.first_lsn == 0 || next.first_lsn > lsn + 1) break;
    std::error_code ec;
    fs::remove(SegmentPath(segments_.front().index), ec);
    segments_.erase(segments_.begin());
    segments_removed_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> WriteAheadLog::ListCheckpoints() const {
  std::vector<std::uint64_t> lsns;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kCheckpointPrefix, 0) != 0 ||
        name.size() <= std::strlen(kCheckpointPrefix) +
                           std::strlen(kCheckpointSuffix) ||
        name.compare(name.size() - std::strlen(kCheckpointSuffix),
                     std::strlen(kCheckpointSuffix),
                     kCheckpointSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kCheckpointPrefix),
                    name.size() - std::strlen(kCheckpointPrefix) -
                        std::strlen(kCheckpointSuffix));
    lsns.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(lsns.rbegin(), lsns.rend());
  return lsns;
}

std::optional<std::string> WriteAheadLog::ReadCheckpoint(
    std::uint64_t lsn) const {
  std::string data;
  if (!ReadFile(CheckpointPath(lsn), &data, nullptr)) return std::nullopt;
  if (data.size() < sizeof(kCheckpointMagic) + FrameSize(0)) {
    return std::nullopt;
  }
  if (const auto fault = fault::Hit("storage.wal.read")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.wal.read"};
      case fault::Mode::kErrorReturn:
        return std::nullopt;
      default:
        fault::FlipBit(data.data(), data.size(), fault->bit);
        break;
    }
  }
  if (std::memcmp(data.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return std::nullopt;
  }
  // Exactly one valid frame follows the magic.
  const std::string_view body =
      std::string_view(data).substr(sizeof(kCheckpointMagic));
  std::size_t offset = 0;
  const Frame frame = NextFrame(body, &offset);
  if (frame.status != FrameStatus::kOk || offset != body.size()) {
    return std::nullopt;
  }
  return std::string(frame.payload);
}

}  // namespace censys::storage
