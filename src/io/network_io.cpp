#include "tgcover/io/network_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"

namespace tgc::io {

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  TGC_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  TGC_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  return in;
}

/// Line-oriented reader for the network and mask formats. Blank lines and
/// `#` comments are skipped; every field is extracted in full and checked,
/// and every error names the offending line.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  /// Advances to the next record and returns its keyword; false at EOF.
  bool next(std::string& keyword) {
    std::string text;
    while (std::getline(in_, text)) {
      ++line_;
      if (text.empty() || text[0] == '#') continue;
      fields_.clear();
      fields_.str(text);
      keyword.clear();
      fields_ >> keyword;
      return true;
    }
    return false;
  }

  /// Advances to the next record, which must start with `keyword`.
  void expect(const std::string& keyword) {
    std::string head;
    TGC_CHECK_MSG(next(head),
                  "unexpected end of file, expected '" << keyword << "'");
    TGC_CHECK_MSG(head == keyword, "line " << line_ << ": expected '"
                                           << keyword << "', got '" << head
                                           << "'");
  }

  /// The record's next field as a T: the whole token must parse, and
  /// floating-point values must be finite.
  template <typename T>
  T field(const char* name) {
    std::string token;
    fields_ >> token;
    T value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    bool ok = !token.empty() && ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    TGC_CHECK_MSG(ok, "line " << line_ << ": " << name << " needs "
                              << (std::is_integral_v<T> ? "an integer"
                                                        : "a finite number")
                              << ", got '" << token << "'");
    return value;
  }

  /// Checks that nothing follows the record's last field.
  void end() {
    std::string extra;
    TGC_CHECK_MSG(!(fields_ >> extra),
                  "line " << line_ << ": unexpected '" << extra << "'");
  }

  std::size_t line() const { return line_; }

 private:
  std::istream& in_;
  std::istringstream fields_;
  std::size_t line_ = 0;
};

/// Parses `<keyword> <version>` and checks the version is 1.
void expect_header(Reader& r, const std::string& keyword) {
  r.expect(keyword);
  const int version = r.field<int>("format version");
  TGC_CHECK_MSG(version == 1, "line " << r.line() << ": unsupported "
                                      << keyword << " version " << version);
  r.end();
}

/// Parses `nodes <n>`; n must fit the 32-bit vertex ids.
std::size_t expect_node_count(Reader& r) {
  r.expect("nodes");
  const std::size_t n = r.field<graph::VertexId>("nodes");
  r.end();
  return n;
}

}  // namespace

void save_deployment(const gen::Deployment& dep, std::ostream& out) {
  out << "tgcover-network 1\n";
  out << "nodes " << dep.graph.num_vertices() << '\n';
  out << std::setprecision(17);
  out << "rc " << dep.rc << '\n';
  out << "area " << dep.area.xmin << ' ' << dep.area.ymin << ' '
      << dep.area.xmax << ' ' << dep.area.ymax << '\n';
  for (graph::VertexId v = 0; v < dep.graph.num_vertices(); ++v) {
    out << "pos " << v << ' ' << dep.positions[v].x << ' '
        << dep.positions[v].y << '\n';
  }
  out << "edges " << dep.graph.num_edges() << '\n';
  for (graph::EdgeId e = 0; e < dep.graph.num_edges(); ++e) {
    const auto [u, v] = dep.graph.edge(e);
    out << "e " << u << ' ' << v << '\n';
  }
}

void save_deployment(const gen::Deployment& dep, const std::string& path) {
  auto out = open_out(path);
  save_deployment(dep, out);
}

gen::Deployment load_deployment(std::istream& in) {
  Reader r(in);
  gen::Deployment dep;
  expect_header(r, "tgcover-network");
  const std::size_t n = expect_node_count(r);
  r.expect("rc");
  dep.rc = r.field<double>("rc");
  TGC_CHECK_MSG(dep.rc > 0.0,
                "line " << r.line() << ": rc must be > 0, got " << dep.rc);
  r.end();
  r.expect("area");
  dep.area.xmin = r.field<double>("area xmin");
  dep.area.ymin = r.field<double>("area ymin");
  dep.area.xmax = r.field<double>("area xmax");
  dep.area.ymax = r.field<double>("area ymax");
  TGC_CHECK_MSG(dep.area.xmin < dep.area.xmax && dep.area.ymin < dep.area.ymax,
                "line " << r.line() << ": area needs min < max on both axes");
  r.end();
  dep.positions.resize(n);
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    r.expect("pos");
    const auto id = r.field<std::size_t>("pos id");
    TGC_CHECK_MSG(id < n && !seen[id],
                  "line " << r.line() << ": bad or duplicate pos id " << id);
    seen[id] = true;
    dep.positions[id].x = r.field<double>("pos x");
    dep.positions[id].y = r.field<double>("pos y");
    r.end();
  }
  r.expect("edges");
  const auto m = r.field<std::size_t>("edges");
  r.end();
  graph::GraphBuilder builder(n);
  for (std::size_t i = 0; i < m; ++i) {
    r.expect("e");
    const auto u = r.field<graph::VertexId>("edge endpoint");
    const auto v = r.field<graph::VertexId>("edge endpoint");
    r.end();
    TGC_CHECK_MSG(u < n && v < n && builder.add_edge(u, v),
                  "line " << r.line() << ": duplicate or invalid edge (" << u
                          << "," << v << ")");
  }
  dep.graph = builder.build();
  return dep;
}

gen::Deployment load_deployment(const std::string& path) {
  auto in = open_in(path);
  return load_deployment(in);
}

void save_mask(const std::vector<bool>& mask, std::ostream& out) {
  out << "tgcover-mask 1\n";
  out << "nodes " << mask.size() << '\n';
  for (std::size_t v = 0; v < mask.size(); ++v) {
    if (mask[v]) out << "set " << v << '\n';
  }
}

void save_mask(const std::vector<bool>& mask, const std::string& path) {
  auto out = open_out(path);
  save_mask(mask, out);
}

std::uint64_t mask_digest(const std::vector<bool>& mask) {
  std::ostringstream serialized;
  save_mask(mask, serialized);
  return util::fnv1a64(serialized.str());
}

std::vector<bool> load_mask(std::istream& in) {
  Reader r(in);
  expect_header(r, "tgcover-mask");
  std::vector<bool> mask(expect_node_count(r), false);
  std::string head;
  while (r.next(head)) {
    TGC_CHECK_MSG(head == "set", "line " << r.line() << ": expected 'set', got '"
                                         << head << "'");
    const auto id = r.field<std::size_t>("set id");
    TGC_CHECK_MSG(id < mask.size(), "line " << r.line() << ": mask id " << id
                                            << " out of range");
    r.end();
    mask[id] = true;
  }
  return mask;
}

std::vector<bool> load_mask(const std::string& path) {
  auto in = open_in(path);
  return load_mask(in);
}

void save_roles_csv(const geom::Embedding& positions,
                    const std::vector<std::string>& roles,
                    const std::string& path) {
  TGC_CHECK(positions.size() == roles.size());
  auto out = open_out(path);
  out << "x,y,role\n" << std::setprecision(17);
  for (std::size_t v = 0; v < positions.size(); ++v) {
    out << positions[v].x << ',' << positions[v].y << ',' << roles[v] << '\n';
  }
}

}  // namespace tgc::io
