#include "io/edgelist.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pacds {

void write_edgelist(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) {
    os << u << ' ' << v << '\n';
  }
}

std::string edgelist_to_string(const Graph& g) {
  std::ostringstream os;
  write_edgelist(os, g);
  return os.str();
}

namespace {

[[noreturn]] void fail(int line_no, const std::string& why) {
  throw std::runtime_error("edge list parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

/// Reads the next non-comment, non-blank line; returns false at EOF.
bool next_content_line(std::istream& is, std::string& line, int& line_no) {
  while (std::getline(is, line)) {
    ++line_no;
    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size() || line[i] == '#') continue;
    return true;
  }
  return false;
}

}  // namespace

Graph read_edgelist(std::istream& is) {
  std::string line;
  int line_no = 0;
  if (!next_content_line(is, line, line_no)) {
    fail(line_no, "missing header");
  }
  std::istringstream header(line);
  long long n = 0;
  long long m = 0;
  if (!(header >> n >> m) || n < 0 || m < 0) {
    fail(line_no, "header must be 'n m' with non-negative integers");
  }
  std::string trailing;
  if (header >> trailing) fail(line_no, "trailing tokens after header");
  if (n > std::numeric_limits<NodeId>::max()) {
    fail(line_no, "vertex count " + std::to_string(n) + " exceeds " +
                      std::to_string(std::numeric_limits<NodeId>::max()));
  }
  Graph g(static_cast<NodeId>(n));
  for (long long i = 0; i < m; ++i) {
    if (!next_content_line(is, line, line_no)) {
      fail(line_no, "expected " + std::to_string(m) + " edges, got " +
                        std::to_string(i));
    }
    std::istringstream edge(line);
    long long u = 0;
    long long v = 0;
    if (!(edge >> u >> v)) fail(line_no, "edge line must be 'u v'");
    if (edge >> trailing) fail(line_no, "trailing tokens after edge");
    if (u < 0 || u >= n || v < 0 || v >= n) fail(line_no, "endpoint out of range");
    if (u == v) fail(line_no, "self-loop");
    if (!g.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v))) {
      fail(line_no, "duplicate edge");
    }
  }
  return g;
}

Graph edgelist_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_edgelist(is);
}

}  // namespace pacds
