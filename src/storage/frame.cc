#include "storage/frame.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/crc32c.h"
#include "core/fault.h"

namespace censys::storage {
namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc

void PutU32Le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t GetU32Le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

std::size_t FrameSize(std::size_t payload_len) {
  return kFrameHeader + payload_len;
}

void AppendFrame(std::string& out, std::string_view payload) {
  out.reserve(out.size() + FrameSize(payload.size()));
  PutU32Le(out, static_cast<std::uint32_t>(payload.size()));
  PutU32Le(out, core::Crc32c(payload));
  out.append(payload);
}

Frame NextFrame(std::string_view data, std::size_t* offset) {
  Frame frame;
  if (*offset >= data.size()) return frame;
  const std::size_t left = data.size() - *offset;
  const char* header = data.data() + *offset;
  if (left < kFrameHeader || GetU32Le(header) > left - kFrameHeader) {
    frame.status = FrameStatus::kTorn;
    return frame;
  }
  const std::string_view payload(header + kFrameHeader, GetU32Le(header));
  frame.size = FrameSize(payload.size());
  if (core::Crc32c(payload) != GetU32Le(header + 4)) {
    frame.status = FrameStatus::kCorrupt;
    return frame;
  }
  frame.status = FrameStatus::kOk;
  frame.payload = payload;
  *offset += frame.size;
  return frame;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, Errno(path));
    return false;
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      SetError(error, Errno(path));
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool WriteAll(int fd, std::string_view bytes, std::string* error) {
  while (!bytes.empty()) {
    const ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      SetError(error, Errno("write"));
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

bool WriteFileAtomically(const std::string& path, std::string_view bytes,
                         std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetError(error, Errno(tmp));
    return false;
  }
  bool ok = WriteAll(fd, bytes, error);
  if (ok && ::fsync(fd) != 0) {
    SetError(error, Errno(tmp + ": fsync"));
    ok = false;
  }
  if (::close(fd) != 0 && ok) {
    SetError(error, Errno(tmp + ": close"));
    ok = false;
  }
  if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, Errno("rename to " + path));
    ok = false;
  }
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

bool WriteSegmentFile(const std::string& path, std::string_view payload,
                      std::string* error) {
  std::string frame;
  AppendFrame(frame, payload);
  std::size_t write_len = frame.size();
  if (const auto fault = fault::Hit("storage.segment.write")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.segment.write"};
      case fault::Mode::kBitFlip:
        // Silent media corruption: the damaged frame lands and renames;
        // only the read-side CRC can tell.
        fault::FlipBit(frame.data(), frame.size(), fault->bit);
        break;
      case fault::Mode::kTornWrite:
        // A tail of the frame silently never reaches the medium (torn
        // DMA, lying disk cache) — but the rename still completes.
        write_len = fault::TornLength(frame.size(), 0.5);
        break;
      case fault::Mode::kErrorReturn:
      default:
        SetError(error, "segment write: injected failure");
        return false;
    }
  }
  return WriteFileAtomically(
      path, std::string_view(frame).substr(0, write_len), error);
}

std::optional<std::string> ReadSegmentFile(const std::string& path,
                                           std::string* error) {
  std::string data;
  if (!ReadFile(path, &data, error)) return std::nullopt;

  if (const auto fault = fault::Hit("storage.segment.read")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.segment.read"};
      case fault::Mode::kErrorReturn:
        SetError(error, "segment read: injected failure");
        return std::nullopt;
      case fault::Mode::kTornWrite:
        // Model a torn tail discovered at read time.
        data.resize(data.size() / 2);
        break;
      case fault::Mode::kBitFlip:
      default:
        if (!data.empty()) {
          fault::FlipBit(data.data(), data.size(), fault->bit);
        }
        break;
    }
  }

  std::size_t offset = 0;
  const Frame frame = NextFrame(data, &offset);
  if (frame.status != FrameStatus::kOk || offset != data.size()) {
    SetError(error, "segment " + path +
                        (frame.status == FrameStatus::kCorrupt
                             ? ": checksum mismatch"
                             : ": not exactly one frame"));
    return std::nullopt;
  }
  return std::string(frame.payload);
}

bool SegmentFileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace censys::storage
