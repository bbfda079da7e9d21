#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_dirs.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/io/svg.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::io {
namespace {

std::filesystem::path temp_file(const std::string& name) {
  return test::temp_path("io_test_" + name);
}

TEST(NetworkIo, DeploymentRoundTrip) {
  util::Rng rng(81);
  const gen::Deployment original = gen::random_udg(120, 4.0, 1.0, rng);

  std::stringstream buffer;
  save_deployment(original, buffer);
  const gen::Deployment loaded = load_deployment(buffer);

  ASSERT_EQ(loaded.graph.num_vertices(), original.graph.num_vertices());
  ASSERT_EQ(loaded.graph.num_edges(), original.graph.num_edges());
  EXPECT_DOUBLE_EQ(loaded.rc, original.rc);
  EXPECT_DOUBLE_EQ(loaded.area.xmax, original.area.xmax);
  for (graph::VertexId v = 0; v < original.graph.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(loaded.positions[v].x, original.positions[v].x);
    EXPECT_DOUBLE_EQ(loaded.positions[v].y, original.positions[v].y);
  }
  for (graph::EdgeId e = 0; e < original.graph.num_edges(); ++e) {
    const auto [u, v] = original.graph.edge(e);
    EXPECT_TRUE(loaded.graph.has_edge(u, v));
  }
}

TEST(NetworkIo, DeploymentFileRoundTrip) {
  util::Rng rng(82);
  const gen::Deployment original = gen::random_udg(40, 3.0, 1.0, rng);
  const auto path = temp_file("net.tgc");
  save_deployment(original, path.string());
  const gen::Deployment loaded = load_deployment(path.string());
  EXPECT_EQ(loaded.graph.num_edges(), original.graph.num_edges());
  std::filesystem::remove(path);
}

TEST(NetworkIo, MaskRoundTrip) {
  std::vector<bool> mask(50, false);
  mask[0] = mask[7] = mask[49] = true;
  std::stringstream buffer;
  save_mask(mask, buffer);
  EXPECT_EQ(load_mask(buffer), mask);
}

TEST(NetworkIo, EmptyMaskRoundTrip) {
  const std::vector<bool> mask(10, false);
  std::stringstream buffer;
  save_mask(mask, buffer);
  EXPECT_EQ(load_mask(buffer), mask);
}

TEST(NetworkIo, RejectsWrongHeader) {
  std::stringstream buffer("bogus 1\nnodes 3\n");
  EXPECT_THROW(load_deployment(buffer), tgc::CheckError);
}

TEST(NetworkIo, RejectsWrongVersion) {
  std::stringstream buffer("tgcover-network 9\nnodes 1\n");
  EXPECT_THROW(load_deployment(buffer), tgc::CheckError);
}

TEST(NetworkIo, RejectsTruncatedFile) {
  std::stringstream buffer("tgcover-network 1\nnodes 3\nrc 1.0\n");
  EXPECT_THROW(load_deployment(buffer), tgc::CheckError);
}

TEST(NetworkIo, RejectsOutOfRangeMaskId) {
  std::stringstream buffer("tgcover-mask 1\nnodes 3\nset 9\n");
  EXPECT_THROW(load_mask(buffer), tgc::CheckError);
}

TEST(NetworkIo, RejectsEachMalformedFieldAtItsLine) {
  // One malformed value per field of a valid 3-node file. The reader must
  // refuse each one with a message naming the field and its line.
  const std::vector<std::string> valid{
      "tgcover-network 1", "nodes 3",  "rc 1.5",   "area 0 0 4 4",
      "pos 0 1 1",         "pos 1 2 1", "pos 2 1.5 2", "edges 2",
      "e 0 1",             "e 1 2"};
  struct Case {
    std::size_t line;  // 1-based line of `valid` to replace
    std::string text;
    std::string expect;  // substring of the error message
  };
  const std::vector<Case> cases{
      {1, "tgcover-network x", "line 1: format version"},
      {2, "nodes -3", "line 2: nodes"},
      {3, "rc nan", "line 3: rc"},
      {3, "rc 0", "line 3: rc must be > 0"},
      {3, "rc inf", "line 3: rc"},
      {4, "area 0 0 4", "line 4: area ymax"},
      {4, "area nan 0 4 4", "line 4: area xmin"},
      {4, "area 0 0 4 -inf", "line 4: area ymax"},
      {4, "area 4 0 0 4", "line 4: area needs min < max"},
      {5, "pos x 1 1", "line 5: pos id"},
      {5, "pos 0 abc 1", "line 5: pos x"},
      {5, "pos 0 1 nan", "line 5: pos y"},
      {5, "pos 0 1 1 7", "line 5: unexpected '7'"},
      {8, "edges two", "line 8: edges"},
      {9, "e 0 q", "line 9: edge endpoint"},
      {9, "e 0 5", "line 9: duplicate or invalid edge"},
  };
  {
    std::stringstream ok;
    for (const std::string& text : valid) ok << text << '\n';
    EXPECT_EQ(load_deployment(ok).graph.num_edges(), 2u);
  }
  for (const Case& c : cases) {
    std::stringstream buffer;
    for (std::size_t i = 0; i < valid.size(); ++i) {
      buffer << (i + 1 == c.line ? c.text : valid[i]) << '\n';
    }
    try {
      load_deployment(buffer);
      ADD_FAILURE() << "accepted '" << c.text << "'";
    } catch (const tgc::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << "'" << c.text << "' gave: " << e.what();
    }
  }
}

TEST(NetworkIo, RejectsMalformedMaskId) {
  std::stringstream buffer("tgcover-mask 1\nnodes 3\nset abc\n");
  EXPECT_THROW(load_mask(buffer), tgc::CheckError);
}

TEST(NetworkIo, IgnoresCommentsAndBlankLines) {
  std::stringstream buffer(
      "# a comment\n\n"
      "tgcover-mask 1\n"
      "# sizes\n"
      "nodes 4\n\n"
      "set 2\n");
  const auto mask = load_mask(buffer);
  EXPECT_EQ(mask, (std::vector<bool>{false, false, true, false}));
}

TEST(NetworkIo, RolesCsv) {
  const geom::Embedding pos{{0, 0}, {1, 1}};
  const std::vector<std::string> roles{"active", "deleted"};
  const auto path = temp_file("roles.csv");
  save_roles_csv(pos, roles, path.string());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y,role");
  std::getline(in, line);
  EXPECT_NE(line.find("active"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Svg, RendersWellFormedDocument) {
  util::Rng rng(83);
  const gen::Deployment dep = gen::random_udg(30, 2.0, 1.0, rng);
  std::vector<NodeRole> roles(30, NodeRole::kActive);
  roles[0] = NodeRole::kBoundary;
  roles[1] = NodeRole::kDeleted;
  roles[2] = NodeRole::kHidden;
  const auto path = temp_file("net.svg");
  render_network_svg(dep.graph, dep.positions, roles, util::Gf2Vector(),
                     path.string());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string svg = content.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Svg, HighlightsBoundaryCycle) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  const graph::Graph g = b.build();
  const geom::Embedding pos{{0, 0}, {1, 0}, {0.5, 1}};
  const std::vector<NodeRole> roles(3, NodeRole::kBoundary);
  util::Gf2Vector cb(g.num_edges());
  cb.set(0);
  cb.set(1);
  cb.set(2);
  const auto path = temp_file("cb.svg");
  SvgStyle style;
  render_network_svg(g, pos, roles, cb, path.string(), style);
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find(style.cb_color), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tgc::io
