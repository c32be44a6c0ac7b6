#include "draw/coords_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace parhde {

void WriteCoordinates(const Layout& layout, std::ostream& out) {
  // std::to_chars with general format and precision 17 prints what "%.17g"
  // (and a precision(17) stream) prints, in the "C" locale whatever the
  // stream's. Lines are formatted into a buffer flushed every ~64 KiB.
  constexpr std::size_t kFlushBytes = std::size_t{64} << 10;
  constexpr std::size_t kMaxLineBytes = 64;  // two "%.17g" values + 2 chars
  std::vector<char> buf(kFlushBytes + kMaxLineBytes);
  std::size_t used = 0;
  const auto put = [&](double value, char sep) {
    char* const end = buf.data() + buf.size();
    const auto res = std::to_chars(buf.data() + used, end, value,
                                   std::chars_format::general, 17);
    *res.ptr = sep;
    used = static_cast<std::size_t>(res.ptr + 1 - buf.data());
  };
  for (std::size_t v = 0; v < layout.x.size(); ++v) {
    put(layout.x[v], ' ');
    put(layout.y[v], '\n');
    if (used >= kFlushBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(used));
      used = 0;
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(used));
}

void WriteCoordinatesFile(const Layout& layout, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("coords: cannot open " + path);
  WriteCoordinates(layout, out);
}

Layout ReadCoordinates(std::istream& in) {
  Layout layout;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream entry(line);
    double x = 0.0, y = 0.0;
    if (!(entry >> x >> y)) {
      throw std::runtime_error("coords: bad line: " + line);
    }
    layout.x.push_back(x);
    layout.y.push_back(y);
  }
  return layout;
}

Layout ReadCoordinatesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("coords: cannot open " + path);
  return ReadCoordinates(in);
}

}  // namespace parhde
