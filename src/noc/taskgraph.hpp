#pragma once
// Application characterization graphs for NoC design (paper §3.3).
//
// "Given the target application described as a set of concurrent tasks, its
//  communication profile, a pre-selected architecture and set of available
//  IPs ..."
//
// An AppGraph is the APCG of Hu–Marculescu [20]: vertices are IP cores
// (already clustered tasks), directed edges carry the communication volume
// between them.  Factories provide the two workloads the paper names — a
// multimedia (video/audio encoder+decoder) system and the §3.2 video
// surveillance pipeline — plus a random TGFF-style generator for sweeps.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/random.hpp"

namespace holms::noc {

struct AppNode {
  std::string name;
  double compute_cycles = 0.0;  // per application iteration
};

struct AppEdge {
  std::size_t src = 0;
  std::size_t dst = 0;
  double volume_bits = 0.0;     // bits communicated per iteration
  double bandwidth_bps = 0.0;   // sustained bandwidth demand
};

/// Directed communication graph of an application.
class AppGraph {
 public:
  std::size_t add_node(std::string name, double compute_cycles = 0.0);
  /// Throws holms::InvalidArgument for an out-of-range endpoint or a
  /// self-loop, a volume that is not finite and > 0, or a bandwidth that is
  /// not finite and >= 0 (0 = the volume is the demand).
  void add_edge(std::size_t src, std::size_t dst, double volume_bits,
                double bandwidth_bps = 0.0);

  std::size_t num_nodes() const { return nodes_.size(); }
  const AppNode& node(std::size_t i) const { return nodes_.at(i); }
  const std::vector<AppEdge>& edges() const { return edges_; }
  double total_volume() const;

  /// Edges incident to node i (for greedy mapping).
  double node_traffic(std::size_t i) const;

 private:
  std::vector<AppNode> nodes_;
  std::vector<AppEdge> edges_;
};

/// Per-node incident-edge lists in CSR form, for O(degree) walks where a
/// scan of the whole edge list would pick out one node's edges.  Each entry
/// is an occurrence edge_index * 2 + role (role 1 = the node is the edge's
/// src, 0 = its dst); a node's occurrences follow edge declaration order
/// (src role first on a self-loop), so accumulating over of(i) adds the
/// same terms in the same order as that scan.  `edges` holds {src, dst}
/// records (AppEdge, SchedDep) with endpoints below `nodes`.
struct IncidenceIndex {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> occ;

  template <class Edge>
  IncidenceIndex(std::size_t nodes, const std::vector<Edge>& edges)
      : offsets(nodes + 1, 0) {
    for (const Edge& e : edges) {
      ++offsets[e.src + 1];
      ++offsets[e.dst + 1];
    }
    for (std::size_t i = 0; i < nodes; ++i) offsets[i + 1] += offsets[i];
    occ.resize(offsets[nodes]);
    std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      occ[fill[edges[ei].src]++] = static_cast<std::uint32_t>(ei * 2 + 1);
      occ[fill[edges[ei].dst]++] = static_cast<std::uint32_t>(ei * 2);
    }
  }
  explicit IncidenceIndex(const AppGraph& g)
      : IncidenceIndex(g.num_nodes(), g.edges()) {}

  std::span<const std::uint32_t> of(std::size_t node) const {
    return {occ.data() + offsets[node], occ.data() + offsets[node + 1]};
  }
};

/// A 16-core multimedia system (MP3 audio enc/dec + H.26x-class video
/// enc/dec sharing memories), with communication volumes patterned on the
/// published MMS benchmark used in [20][23].
AppGraph mms_graph();

/// The paper's §3.2 example: "a video surveillance system that has to
/// perform such diverse tasks as motion detection, filtering, rendering,
/// object matching" — a mostly-linear high-bandwidth pipeline with side
/// channels for user input and storage.
AppGraph video_surveillance_graph();

/// Random TGFF-style layered DAG with n nodes.
AppGraph random_graph(std::size_t n, sim::Rng& rng, double mean_volume = 1e6);

/// True if every edge goes from a lower to a higher node index (the
/// precondition of the schedulers in scheduling.hpp).
bool is_topologically_ordered(const AppGraph& g);

/// DAG variant of the surveillance pipeline: the pattern-db feedback is
/// folded into a forward annotation edge so the graph is schedulable
/// (mapping studies should keep using video_surveillance_graph()).
AppGraph video_surveillance_dag();

/// DAG variant of the MMS system: decode + encode + audio chains without
/// the memory write-back cycles; compute/volume figures match mms_graph().
AppGraph mms_dag();

/// Scaled-out surveillance workload for 32x32+ mapping sweeps: `cameras`
/// independent §3.2 front-end pipelines (camera -> motion-detect -> filter ->
/// object-match), every 4 cameras fanned into one rendering stage, all
/// renderers merged by a shared encode -> {storage, net-out} back end, plus
/// the low-bandwidth controller / pattern-db side channels.  Node indices are
/// topologically ordered (schedulable as-is); 3 + 4*cameras + ceil(cameras/4)
/// + 3 nodes total, so cameras = 46 gives the ~200-task graph the island
/// sweeps use.  Deterministic — no RNG, same graph every call.
AppGraph surveillance_farm_graph(std::size_t cameras);

}  // namespace holms::noc
