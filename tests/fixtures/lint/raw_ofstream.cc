// Lint fixture: an unwaived raw-ofstream violation (an output written
// through std::ofstream instead of util/durable_file.h) that lint.py
// must report.
#include <fstream>
#include <string>

namespace fixture {
void Save(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}
}  // namespace fixture
