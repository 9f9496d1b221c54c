// Fixture: the exemption covers named files, not the src/storage/
// directory — any other storage file doing its own file I/O is flagged.
#include <fstream>

void WriteSnapshot(const char* path) {
  std::ofstream out(path, std::ios::binary);  // expect: raw-file-io
  out << "snapshot";
}

int SyncSnapshot(int fd) {
  return ::fsync(fd);  // expect: raw-file-io
}
