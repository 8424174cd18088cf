#include "src/graph/graph.h"

#include <gtest/gtest.h>

namespace fl::graph {
namespace {

Graph SmallGraph() {
  GraphBuilder b;
  const NodeId x = b.Input("x", {0, 4});
  const NodeId y = b.Input("y", {0, 1});
  const NodeId w = b.Param("w", {4, 2});
  const NodeId bias = b.Param("b", {2});
  const NodeId logits = b.AddBias(b.MatMul(x, w), bias);
  b.SoftmaxXent(logits, y);
  return std::move(b).Build();
}

TEST(GraphTest, BuilderAssignsSequentialIds) {
  const Graph g = SmallGraph();
  EXPECT_EQ(g.size(), 7u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.node(static_cast<NodeId>(i)).id, i);
  }
}

TEST(GraphTest, ParamsAndInputsEnumerated) {
  const Graph g = SmallGraph();
  EXPECT_EQ(g.Params().size(), 2u);
  EXPECT_EQ(g.Inputs().size(), 2u);
  EXPECT_EQ(g.Params()[0]->name, "w");
}

TEST(GraphTest, FindByName) {
  const Graph g = SmallGraph();
  ASSERT_TRUE(g.FindByName("w").has_value());
  EXPECT_FALSE(g.FindByName("nope").has_value());
}

TEST(GraphTest, ForwardReferencesRejected) {
  Graph g;
  EXPECT_THROW(g.AddNode(OpType::kRelu, {5}), std::logic_error);
}

TEST(GraphTest, InputRequiresNameAndShape) {
  Graph g;
  EXPECT_THROW(g.AddNode(OpType::kInput, {}, "", {1}), std::logic_error);
  EXPECT_THROW(g.AddNode(OpType::kParam, {}, "p", {}), std::logic_error);
}

TEST(GraphTest, SerializeDeserializeRoundTrip) {
  const Graph g = SmallGraph();
  const auto back = Graph::Deserialize(g.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->size(), g.size());
  EXPECT_EQ(back->Fingerprint(), g.Fingerprint());
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Node& a = g.node(static_cast<NodeId>(i));
    const Node& b = back->node(static_cast<NodeId>(i));
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.shape, b.shape);
  }
}

TEST(GraphTest, CorruptSerializationRejected) {
  Bytes bytes = SmallGraph().Serialize();
  bytes[0] = 'Z';
  EXPECT_FALSE(Graph::Deserialize(bytes).ok());
}

TEST(GraphTest, TruncatedSerializationRejected) {
  const Bytes bytes = SmallGraph().Serialize();
  const auto r = Graph::Deserialize(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() / 2));
  EXPECT_FALSE(r.ok());
}

TEST(GraphTest, LyingInputCountRejectedBeforeAllocating) {
  // A valid header, then one node declaring 2^40 inputs in a few bytes.
  const Bytes valid = SmallGraph().Serialize();
  BytesWriter w;
  for (int i = 0; i < 6; ++i) w.WriteU8(valid[i]);  // magic + version
  w.WriteVarint(1);                                 // node count
  w.WriteU8(static_cast<std::uint8_t>(OpType::kInput));
  w.WriteString("x");
  w.WriteVarint(std::uint64_t{1} << 40);  // n_inputs
  w.WriteVarint(0);
  const auto r = Graph::Deserialize(std::move(w).Take());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss);
}

TEST(GraphTest, FingerprintDistinguishesGraphs) {
  const Graph a = SmallGraph();
  GraphBuilder b;
  const NodeId x = b.Input("x", {0, 4});
  b.Relu(x);
  const Graph g2 = std::move(b).Build();
  EXPECT_NE(a.Fingerprint(), g2.Fingerprint());
}

TEST(GraphTest, OpTypeNamesUnique) {
  EXPECT_STREQ(OpTypeName(OpType::kMatMul), "MatMul");
  EXPECT_STREQ(OpTypeName(OpType::kFusedMatMulBias), "FusedMatMulBias");
  EXPECT_STRNE(OpTypeName(OpType::kTanh), OpTypeName(OpType::kFastTanh));
}

}  // namespace
}  // namespace fl::graph
