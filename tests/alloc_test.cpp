// Heap-allocation budget of the VPT kernel. This binary replaces the global
// operator new with a counting one, so it holds no other tests: after one
// warm-up pass over every node of the 1,600-node degree-25 UDG, a second
// pass of vpt_vertex_deletable calls through the same VptWorkspace must
// average at most 10 allocations per test (the workspace, the ball view and
// the span kernel's buffers only grow, so a warm pass should need none).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/util/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tgc::core {
namespace {

const Network& input() {
  static const Network net = [] {
    constexpr std::size_t kNodes = 1600;
    util::Rng rng(8);
    auto dep = gen::random_connected_udg(
        kNodes, gen::side_for_average_degree(kNodes, 1.0, 25.0), 1.0, rng);
    return prepare_network(std::move(dep), 1.0);
  }();
  return net;
}

/// Mean allocations per test over one warm pass of every node at `tau`.
double warm_allocations_per_test(unsigned tau) {
  const graph::Graph& g = input().dep.graph;
  const std::vector<bool> active(g.num_vertices(), true);
  const VptConfig config{tau, 0};
  VptWorkspace ws;
  const std::size_t cold = g_allocations.load();
  std::size_t deletable = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    deletable += vpt_vertex_deletable(g, active, v, config, ws) ? 1 : 0;
  }
  const std::size_t before = g_allocations.load();
  // The empty workspace grows during the warm-up, so the hook must see it.
  EXPECT_GT(before, cold) << "operator new replacement not counting";
  std::size_t again = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    again += vpt_vertex_deletable(g, active, v, config, ws) ? 1 : 0;
  }
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(again, deletable);
  const double per_test = static_cast<double>(allocations) /
                          static_cast<double>(g.num_vertices());
  std::cout << "tau " << tau << ": " << allocations << " allocations in "
            << g.num_vertices() << " warm tests (" << per_test
            << " per test)\n";
  return per_test;
}

TEST(VptAllocations, WarmTestsAtTau4StayUnderBudget) {
  EXPECT_LE(warm_allocations_per_test(4), 10.0);
}

TEST(VptAllocations, WarmTestsAtTau6StayUnderBudget) {
  EXPECT_LE(warm_allocations_per_test(6), 10.0);
}

}  // namespace
}  // namespace tgc::core
