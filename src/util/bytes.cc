#include "util/bytes.h"

#include <filesystem>
#include <fstream>

namespace rv::util {

bool read_file(const std::string& path, std::string& out) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream is(path, std::ios::binary);
  if (ec || !is) return false;
  out.resize(size);
  is.read(out.data(), static_cast<std::streamsize>(size));
  return static_cast<std::uintmax_t>(is.gcount()) == size;
}

bool write_file(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  return os.good();
}

}  // namespace rv::util
