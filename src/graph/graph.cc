#include "src/graph/graph.h"

#include "src/common/crc32.h"

namespace fl::graph {
namespace {
constexpr char kMagic[4] = {'F', 'L', 'G', 'R'};
constexpr std::uint16_t kFormatVersion = 1;
}  // namespace

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kInput: return "Input";
    case OpType::kParam: return "Param";
    case OpType::kMatMul: return "MatMul";
    case OpType::kAddBias: return "AddBias";
    case OpType::kRelu: return "Relu";
    case OpType::kTanh: return "Tanh";
    case OpType::kSigmoid: return "Sigmoid";
    case OpType::kEmbedLookup: return "EmbedLookup";
    case OpType::kSoftmaxXent: return "SoftmaxXent";
    case OpType::kMeanSquaredError: return "MeanSquaredError";
    case OpType::kBinaryXent: return "BinaryXent";
    case OpType::kFusedMatMulBias: return "FusedMatMulBias";
    case OpType::kFastTanh: return "FastTanh";
  }
  return "Unknown";
}

NodeId Graph::AddNode(OpType op, std::vector<NodeId> inputs, std::string name,
                      Shape shape) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId in : inputs) {
    FL_CHECK_MSG(in < id, "graph inputs must reference earlier nodes");
  }
  if (op == OpType::kInput || op == OpType::kParam) {
    FL_CHECK_MSG(!name.empty(), "Input/Param nodes require a name");
    FL_CHECK_MSG(!shape.empty(), "Input/Param nodes require a shape");
  }
  nodes_.push_back(
      Node{id, op, std::move(name), std::move(inputs), std::move(shape)});
  return id;
}

std::vector<const Node*> Graph::Params() const {
  std::vector<const Node*> out;
  for (const Node& n : nodes_) {
    if (n.op == OpType::kParam) out.push_back(&n);
  }
  return out;
}

std::vector<const Node*> Graph::Inputs() const {
  std::vector<const Node*> out;
  for (const Node& n : nodes_) {
    if (n.op == OpType::kInput) out.push_back(&n);
  }
  return out;
}

std::optional<NodeId> Graph::FindByName(const std::string& name) const {
  for (const Node& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return std::nullopt;
}

std::uint64_t Graph::Fingerprint() const {
  const Bytes b = Serialize();
  const std::uint32_t lo = Crc32(b);
  const std::uint32_t hi = Crc32(b, 0xA5A5A5A5u);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

Bytes Graph::Serialize() const {
  BytesWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.WriteU16(kFormatVersion);
  w.WriteVarint(nodes_.size());
  for (const Node& n : nodes_) {
    w.WriteU8(static_cast<std::uint8_t>(n.op));
    w.WriteString(n.name);
    w.WriteVarint(n.inputs.size());
    for (NodeId in : n.inputs) w.WriteVarint(in);
    w.WriteVarint(n.shape.size());
    for (std::size_t d : n.shape) w.WriteVarint(d);
  }
  return std::move(w).Take();
}

Result<Graph> Graph::Deserialize(std::span<const std::uint8_t> data) {
  BytesReader r(data);
  for (char expected : kMagic) {
    FL_ASSIGN_OR_RETURN(std::uint8_t b, r.ReadU8());
    if (static_cast<char>(b) != expected) {
      return DataLossError("bad graph magic");
    }
  }
  FL_ASSIGN_OR_RETURN(std::uint16_t version, r.ReadU16());
  if (version != kFormatVersion) {
    return DataLossError("unsupported graph format version");
  }
  FL_ASSIGN_OR_RETURN(std::uint64_t count, r.ReadVarint());
  Graph g;
  for (std::uint64_t i = 0; i < count; ++i) {
    FL_ASSIGN_OR_RETURN(std::uint8_t op_raw, r.ReadU8());
    if (op_raw > static_cast<std::uint8_t>(OpType::kFastTanh)) {
      return DataLossError("unknown op type " + std::to_string(op_raw));
    }
    FL_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    FL_ASSIGN_OR_RETURN(std::uint64_t n_inputs, r.ReadVarint());
    if (n_inputs > r.remaining()) {  // one varint byte per input at least
      return DataLossError("graph input count exceeds payload");
    }
    std::vector<NodeId> inputs;
    inputs.reserve(n_inputs);
    for (std::uint64_t k = 0; k < n_inputs; ++k) {
      FL_ASSIGN_OR_RETURN(std::uint64_t in, r.ReadVarint());
      if (in >= i) return DataLossError("graph input references later node");
      inputs.push_back(static_cast<NodeId>(in));
    }
    FL_ASSIGN_OR_RETURN(std::uint64_t rank, r.ReadVarint());
    if (rank > 8) return DataLossError("implausible node rank");
    Shape shape(rank);
    for (auto& d : shape) {
      FL_ASSIGN_OR_RETURN(std::uint64_t dim, r.ReadVarint());
      d = dim;
    }
    const auto op = static_cast<OpType>(op_raw);
    if ((op == OpType::kInput || op == OpType::kParam) &&
        (name.empty() || shape.empty())) {
      return DataLossError("Input/Param node missing name or shape");
    }
    g.AddNode(op, std::move(inputs), std::move(name), std::move(shape));
  }
  if (!r.AtEnd()) return DataLossError("trailing bytes in graph");
  return g;
}

}  // namespace fl::graph
