#include "data/csv.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.h"

namespace privbayes {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream iss(line);
  while (std::getline(iss, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

void WriteCsv(const Dataset& data, std::ostream& out) {
  const Schema& s = data.schema();
  for (int c = 0; c < s.num_attrs(); ++c) {
    out << (c ? "," : "") << s.attr(c).name;
  }
  out << '\n';
  for (int r = 0; r < data.num_rows(); ++r) {
    for (int c = 0; c < s.num_attrs(); ++c) {
      out << (c ? "," : "") << data.at(r, c);
    }
    out << '\n';
  }
}

void WriteCsvFile(const Dataset& data, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  WriteCsv(data, f);
  if (!f) throw std::runtime_error("write failed: " + path);
}

Dataset ReadCsv(const Schema& schema, std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty CSV input");
  std::vector<std::string> header = SplitCsvLine(line);
  if (static_cast<int>(header.size()) != schema.num_attrs()) {
    throw std::runtime_error("CSV header width mismatch");
  }
  for (int c = 0; c < schema.num_attrs(); ++c) {
    if (header[c] != schema.attr(c).name) {
      throw std::runtime_error("CSV header column '" + header[c] +
                               "' != schema attribute '" +
                               schema.attr(c).name + "'");
    }
  }
  std::vector<std::vector<Value>> columns(
      static_cast<size_t>(schema.num_attrs()));
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (static_cast<int>(fields.size()) != schema.num_attrs()) {
      throw std::runtime_error("CSV row width mismatch at line " +
                               std::to_string(line_no));
    }
    for (int c = 0; c < schema.num_attrs(); ++c) {
      long v = -1;
      try {
        v = std::stol(fields[c]);
      } catch (const std::exception&) {
        throw std::runtime_error("non-integer CSV cell at line " +
                                 std::to_string(line_no));
      }
      if (v < 0 || v >= schema.Cardinality(c)) {
        throw std::runtime_error("CSV value out of domain at line " +
                                 std::to_string(line_no));
      }
      columns[c].push_back(static_cast<Value>(v));
    }
  }
  return Dataset::FromColumns(schema, std::move(columns));
}

Dataset ReadCsvFile(const Schema& schema, const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return ReadCsv(schema, f);
}

}  // namespace privbayes
