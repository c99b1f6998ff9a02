// Topology invariants: node/coordinate round trips, channel counts,
// neighbour structure, across meshes, tori, and hypercubes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <set>

#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/torus.hpp"

namespace wormrt::topo {
namespace {

TEST(ChannelGraph, AddFindAndAdjacency) {
  ChannelGraph g;
  g.reserve_nodes(3);
  const ChannelId a = g.add(0, 1);
  const ChannelId b = g.add(1, 2);
  const ChannelId c = g.add(2, 0);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.find(0, 1), a);
  EXPECT_EQ(g.find(1, 2), b);
  EXPECT_EQ(g.find(2, 0), c);
  EXPECT_EQ(g.find(0, 2), kNoChannel);
  EXPECT_EQ(g.channel(a).src, 0);
  EXPECT_EQ(g.channel(a).dst, 1);
  EXPECT_EQ(g.outgoing(0), std::vector<ChannelId>{a});
  EXPECT_EQ(g.incoming(0), std::vector<ChannelId>{c});
}

struct MeshShape {
  std::vector<std::int32_t> radices;
};

// Prints "4x3x2". Without it gtest prints the struct's raw bytes (the
// vector's heap pointers), so the test names would change on every run.
void PrintTo(const MeshShape& shape, std::ostream* os) {
  for (std::size_t d = 0; d < shape.radices.size(); ++d) {
    *os << (d == 0 ? "" : "x") << shape.radices[d];
  }
}

class MeshInvariants : public ::testing::TestWithParam<MeshShape> {};

TEST_P(MeshInvariants, CoordinateRoundTrip) {
  const Mesh mesh(GetParam().radices);
  for (NodeId n = 0; n < mesh.num_nodes(); ++n) {
    EXPECT_EQ(mesh.node_at(mesh.coord_of(n)), n);
  }
}

TEST_P(MeshInvariants, ChannelCountMatchesFormula) {
  const Mesh mesh(GetParam().radices);
  // Each dimension d contributes 2 * (k_d - 1) * (N / k_d) directed
  // channels.
  std::int64_t expected = 0;
  for (int d = 0; d < mesh.dimensions(); ++d) {
    expected += 2ll * (mesh.radix(d) - 1) *
                (mesh.num_nodes() / mesh.radix(d));
  }
  EXPECT_EQ(static_cast<std::int64_t>(mesh.num_channels()), expected);
}

TEST_P(MeshInvariants, ChannelsConnectGridNeighbours) {
  const Mesh mesh(GetParam().radices);
  for (std::size_t c = 0; c < mesh.num_channels(); ++c) {
    const auto& ch = mesh.channels().channel(static_cast<ChannelId>(c));
    const Coord a = mesh.coord_of(ch.src);
    const Coord b = mesh.coord_of(ch.dst);
    int diff = 0;
    for (std::size_t d = 0; d < a.size(); ++d) {
      diff += std::abs(a[d] - b[d]);
    }
    EXPECT_EQ(diff, 1);
  }
}

TEST_P(MeshInvariants, ReverseChannelExists) {
  const Mesh mesh(GetParam().radices);
  for (std::size_t c = 0; c < mesh.num_channels(); ++c) {
    const auto& ch = mesh.channels().channel(static_cast<ChannelId>(c));
    EXPECT_NE(mesh.channel_between(ch.dst, ch.src), kNoChannel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshInvariants,
    ::testing::Values(MeshShape{{2, 2}}, MeshShape{{10, 10}},
                      MeshShape{{1, 5}}, MeshShape{{4, 3, 2}},
                      MeshShape{{7}}, MeshShape{{3, 3, 3, 3}}));

TEST(Mesh, NameAndAccessors) {
  const Mesh mesh(10, 10);
  EXPECT_EQ(mesh.name(), "mesh(10x10)");
  EXPECT_EQ(mesh.num_nodes(), 100);
  EXPECT_EQ(mesh.dimensions(), 2);
  EXPECT_EQ(mesh.radix(0), 10);
  EXPECT_FALSE(mesh.wraps(0));
  EXPECT_TRUE(mesh.contains({9, 9}));
  EXPECT_FALSE(mesh.contains({10, 0}));
  EXPECT_FALSE(mesh.contains({0}));
}

TEST(Mesh, NodeIdsRowMajorInX) {
  const Mesh mesh(10, 10);
  EXPECT_EQ(mesh.node_at({0, 0}), 0);
  EXPECT_EQ(mesh.node_at({1, 0}), 1);
  EXPECT_EQ(mesh.node_at({0, 1}), 10);
  EXPECT_EQ(mesh.node_at({7, 3}), 37);
}

TEST(Torus, WrapChannelsExist) {
  const Torus torus(4, 4);
  EXPECT_TRUE(torus.wraps(0));
  // (3,0) -> (0,0) wraps in X.
  EXPECT_NE(torus.channel_between(torus.node_at({3, 0}),
                                  torus.node_at({0, 0})),
            kNoChannel);
  // Every node has degree 4 (2 per dimension).
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    EXPECT_EQ(torus.channels().outgoing(n).size(), 4u);
    EXPECT_EQ(torus.channels().incoming(n).size(), 4u);
  }
  EXPECT_EQ(torus.num_channels(), 4u * 16u);
}

TEST(Torus, RadixTwoHasSingleLinkPerPair) {
  const Torus torus(2, 2);
  // 4 nodes, degree 2 each (one per dimension), no duplicate channels.
  EXPECT_EQ(torus.num_channels(), 8u);
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    EXPECT_EQ(torus.channels().outgoing(n).size(), 2u);
  }
}

TEST(Torus, DegenerateRadixOneDimension) {
  const Torus torus(std::vector<std::int32_t>{5, 1});
  EXPECT_EQ(torus.num_nodes(), 5);
  EXPECT_FALSE(torus.wraps(1));
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    EXPECT_EQ(torus.channels().outgoing(n).size(), 2u);
  }
}

class HypercubeInvariants : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeInvariants, DegreeEqualsOrderAndLinksFlipOneBit) {
  const Hypercube cube(GetParam());
  EXPECT_EQ(cube.num_nodes(), 1 << GetParam());
  for (NodeId n = 0; n < cube.num_nodes(); ++n) {
    const auto& out = cube.channels().outgoing(n);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(GetParam()));
    std::set<NodeId> neighbours;
    for (const auto cid : out) {
      const NodeId m = cube.channels().channel(cid).dst;
      const NodeId x = n ^ m;
      EXPECT_EQ(x & (x - 1), 0) << "not a power of two";
      neighbours.insert(m);
    }
    EXPECT_EQ(neighbours.size(), static_cast<std::size_t>(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, HypercubeInvariants,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(Hypercube, NodeIdIsCoordinateBitstring) {
  const Hypercube cube(4);
  EXPECT_EQ(cube.name(), "hypercube(4)");
  const Coord c = cube.coord_of(0b1010);
  EXPECT_EQ(c, (Coord{0, 1, 0, 1}));
  EXPECT_EQ(cube.node_at(c), 0b1010);
}

TEST(CoordToString, Formats) {
  EXPECT_EQ(to_string(Coord{7, 3}), "(7,3)");
  EXPECT_EQ(to_string(Coord{1}), "(1)");
}

TEST(ChannelFaults, FlagsFlipCountAndReportNoOps) {
  Mesh mesh(4, 4);
  const ChannelId ch = mesh.channel_between(0, 1);
  ASSERT_NE(ch, kNoChannel);
  EXPECT_FALSE(mesh.channel_faulted(ch));
  EXPECT_EQ(mesh.channels().num_faulted(), 0u);

  EXPECT_TRUE(mesh.set_channel_faulted(ch, true));
  EXPECT_TRUE(mesh.channel_faulted(ch));
  EXPECT_EQ(mesh.channels().num_faulted(), 1u);
  // Same state again: a no-op, and the count must not double-book.
  EXPECT_FALSE(mesh.set_channel_faulted(ch, true));
  EXPECT_EQ(mesh.channels().num_faulted(), 1u);

  EXPECT_TRUE(mesh.set_channel_faulted(ch, false));
  EXPECT_FALSE(mesh.channel_faulted(ch));
  EXPECT_EQ(mesh.channels().num_faulted(), 0u);
  EXPECT_FALSE(mesh.set_channel_faulted(ch, false));
}

TEST(ChannelFaults, DirectedFlagsAreIndependent)  {
  Mesh mesh(4, 4);
  const ChannelId fwd = mesh.channel_between(0, 1);
  const ChannelId rev = mesh.channel_between(1, 0);
  ASSERT_NE(fwd, rev);
  ASSERT_TRUE(mesh.set_channel_faulted(fwd, true));
  EXPECT_TRUE(mesh.channel_faulted(fwd));
  EXPECT_FALSE(mesh.channel_faulted(rev));  // the reverse link is healthy
}

TEST(TopologyFingerprint, IdentifiesTheFabric) {
  const Mesh a(4, 4), b(4, 4);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());  // same shape, same id
  EXPECT_NE(a.fingerprint(), 0u);

  const Mesh wider(5, 4), taller(4, 5);
  EXPECT_NE(a.fingerprint(), wider.fingerprint());
  EXPECT_NE(a.fingerprint(), taller.fingerprint());
  EXPECT_NE(wider.fingerprint(), taller.fingerprint());

  // Same node count, different wrap-around: a torus is NOT a mesh.
  const Torus torus(4, 4);
  EXPECT_NE(a.fingerprint(), torus.fingerprint());
  const Hypercube cube(4);  // 16 nodes too
  EXPECT_NE(a.fingerprint(), cube.fingerprint());
}

TEST(TopologyFingerprint, IgnoresDynamicFaultState) {
  // The fingerprint names the fabric, not its current health: recovery
  // stamps it before replaying the fault history, so a snapshot taken
  // with links down must still match.
  Mesh faulted(4, 4);
  const Mesh pristine(4, 4);
  ASSERT_TRUE(faulted.set_channel_faulted(faulted.channel_between(0, 1), true));
  EXPECT_EQ(faulted.fingerprint(), pristine.fingerprint());
}

}  // namespace
}  // namespace wormrt::topo
