// Fixture: storage/frame.{h,cc} (the frame module's file helpers) and
// storage/wal.cc (the segment appender) are the only files allowed to
// touch bytes on disk — the same patterns that fire elsewhere are exempt
// here.
#include <fstream>

void WriteSegment(const char* path) {
  std::ofstream out(path, std::ios::binary);
  out << "frame";
}

int OpenSegment(const char* path) { return ::open(path, 0); }
