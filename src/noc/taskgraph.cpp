#include "noc/taskgraph.hpp"

#include <cmath>
#include <stdexcept>

#include "exec/error.hpp"

namespace holms::noc {

std::size_t AppGraph::add_node(std::string name, double compute_cycles) {
  nodes_.push_back(AppNode{std::move(name), compute_cycles});
  return nodes_.size() - 1;
}

void AppGraph::add_edge(std::size_t src, std::size_t dst, double volume_bits,
                        double bandwidth_bps) {
  if (src >= nodes_.size() || dst >= nodes_.size() || src == dst) {
    throw holms::InvalidArgument("AppGraph::add_edge: bad endpoints");
  }
  if (!(volume_bits > 0.0) || !std::isfinite(volume_bits)) {
    throw holms::InvalidArgument(
        "AppGraph::add_edge: volume must be finite and > 0");
  }
  // 0 means "use the volume".  An infinite demand would make a link load
  // inf, and the first move off that link would compute inf - inf = NaN.
  if (!(bandwidth_bps >= 0.0) || !std::isfinite(bandwidth_bps)) {
    throw holms::InvalidArgument(
        "AppGraph::add_edge: bandwidth must be finite and >= 0");
  }
  edges_.push_back(AppEdge{src, dst, volume_bits, bandwidth_bps});
}

double AppGraph::total_volume() const {
  double v = 0.0;
  // HOLMS_LINT_ALLOW(D006): graph-constant volume sum in edge declaration order
  for (const auto& e : edges_) v += e.volume_bits;
  return v;
}

double AppGraph::node_traffic(std::size_t i) const {
  double v = 0.0;
  for (const auto& e : edges_) {
    // HOLMS_LINT_ALLOW(D006): graph-constant per-node traffic sum in edge declaration order
    if (e.src == i || e.dst == i) v += e.volume_bits;
  }
  return v;
}

AppGraph mms_graph() {
  AppGraph g;
  // Cores (compute cycles per 40 ms application iteration).
  const auto asic1 = g.add_node("asic1-vld", 2.0e6);
  const auto asic2 = g.add_node("asic2-iq", 1.2e6);
  const auto asic3 = g.add_node("asic3-idct", 3.5e6);
  const auto asic4 = g.add_node("asic4-mc", 2.4e6);
  const auto dsp1 = g.add_node("dsp1-audio-dec", 1.8e6);
  const auto dsp2 = g.add_node("dsp2-audio-fft", 2.2e6);
  const auto dsp3 = g.add_node("dsp3-audio-filt", 1.5e6);
  const auto dsp4 = g.add_node("dsp4-video-enc", 4.0e6);
  const auto dsp5 = g.add_node("dsp5-me", 4.5e6);
  const auto dsp6 = g.add_node("dsp6-dct", 2.8e6);
  const auto dsp7 = g.add_node("dsp7-vlc", 1.6e6);
  const auto dsp8 = g.add_node("dsp8-audio-enc", 2.0e6);
  const auto mem1 = g.add_node("mem1-frame", 0.0);
  const auto mem2 = g.add_node("mem2-ref", 0.0);
  const auto mem3 = g.add_node("mem3-audio", 0.0);
  const auto cpu = g.add_node("cpu-ctrl", 0.8e6);

  // Volumes in bits per iteration (video paths dominate; values scaled from
  // the MMS benchmark's kB-per-slot communication profile).
  auto kb = [](double k) { return k * 8192.0; };
  // Video decode chain.
  g.add_edge(asic1, asic2, kb(70));
  g.add_edge(asic2, asic3, kb(362));
  g.add_edge(asic3, asic4, kb(362));
  g.add_edge(asic4, mem1, kb(500));
  g.add_edge(mem1, asic4, kb(250));
  g.add_edge(cpu, asic1, kb(120));
  // Video encode chain.
  g.add_edge(mem2, dsp5, kb(670));
  g.add_edge(dsp5, dsp4, kb(380));
  g.add_edge(dsp4, dsp6, kb(362));
  g.add_edge(dsp6, dsp7, kb(362));
  g.add_edge(dsp7, cpu, kb(49));
  g.add_edge(dsp4, mem2, kb(353));
  // Audio decode.
  g.add_edge(cpu, dsp1, kb(25));
  g.add_edge(dsp1, dsp2, kb(91));
  g.add_edge(dsp2, dsp3, kb(91));
  g.add_edge(dsp3, mem3, kb(32));
  // Audio encode.
  g.add_edge(mem3, dsp8, kb(64));
  g.add_edge(dsp8, cpu, kb(16));
  // Cross traffic: control and synchronization.
  g.add_edge(cpu, mem1, kb(75));
  g.add_edge(cpu, dsp5, kb(27));
  return g;
}

AppGraph video_surveillance_graph() {
  AppGraph g;
  const auto cam0 = g.add_node("camera-in-0", 0.2e6);
  const auto cam1 = g.add_node("camera-in-1", 0.2e6);
  const auto md = g.add_node("motion-detect", 5.0e6);
  const auto filt = g.add_node("filtering", 3.2e6);
  const auto om = g.add_node("object-match", 6.5e6);
  const auto rend = g.add_node("rendering", 2.5e6);
  const auto enc = g.add_node("mpeg-encode", 4.8e6);
  const auto store = g.add_node("storage", 0.0);
  const auto net = g.add_node("net-out", 0.3e6);
  const auto ui = g.add_node("user-input", 0.1e6);
  const auto db = g.add_node("pattern-db", 0.0);
  const auto ctrl = g.add_node("controller", 0.5e6);

  auto mb = [](double m) { return m * 1e6 * 8.0; };
  // The §3.2 observation: the data flow passes motion-detect -> filtering ->
  // ... along that path the network should provide the highest bandwidth.
  g.add_edge(cam0, md, mb(3.0));
  g.add_edge(cam1, md, mb(3.0));
  g.add_edge(md, filt, mb(5.5));
  g.add_edge(filt, om, mb(4.8));
  g.add_edge(om, rend, mb(2.2));
  g.add_edge(rend, enc, mb(2.0));
  g.add_edge(enc, store, mb(0.6));
  g.add_edge(enc, net, mb(0.6));
  g.add_edge(db, om, mb(1.5));
  g.add_edge(om, db, mb(0.3));
  // Low-bandwidth control: "reading and interpreting user input requires
  // less bandwidth, as well as lesser frequent communication."
  g.add_edge(ui, ctrl, mb(0.01));
  g.add_edge(ctrl, md, mb(0.02));
  g.add_edge(ctrl, enc, mb(0.02));
  g.add_edge(ctrl, rend, mb(0.01));
  return g;
}

AppGraph random_graph(std::size_t n, sim::Rng& rng, double mean_volume) {
  if (n < 2) throw holms::InvalidArgument("random_graph: need >= 2 nodes");
  AppGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.add_node("t" + std::to_string(i), rng.uniform(0.5e6, 5e6));
  }
  // Layered DAG: every node gets 1..3 successors among the next few nodes.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t fanout =
        static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t k = 0; k < fanout; ++k) {
      const std::size_t span = std::min<std::size_t>(n - 1 - i, 4);
      const std::size_t dst =
          i + 1 + static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(span) - 1));
      if (dst != i) {
        g.add_edge(i, dst, rng.exponential(1.0 / mean_volume));
      }
    }
  }
  return g;
}

bool is_topologically_ordered(const AppGraph& g) {
  for (const auto& e : g.edges()) {
    if (e.src >= e.dst) return false;
  }
  return true;
}

AppGraph video_surveillance_dag() {
  AppGraph g;
  const auto ui = g.add_node("user-input", 0.1e6);
  const auto ctrl = g.add_node("controller", 0.5e6);
  const auto cam0 = g.add_node("camera-in-0", 0.2e6);
  const auto cam1 = g.add_node("camera-in-1", 0.2e6);
  const auto db = g.add_node("pattern-db", 0.1e6);
  const auto md = g.add_node("motion-detect", 5.0e6);
  const auto filt = g.add_node("filtering", 3.2e6);
  const auto om = g.add_node("object-match", 6.5e6);
  const auto rend = g.add_node("rendering", 2.5e6);
  const auto enc = g.add_node("mpeg-encode", 4.8e6);
  const auto store = g.add_node("storage", 0.1e6);
  const auto net = g.add_node("net-out", 0.3e6);

  auto mb = [](double m) { return m * 1e6 * 8.0; };
  g.add_edge(ui, ctrl, mb(0.01));
  g.add_edge(ctrl, md, mb(0.02));
  g.add_edge(ctrl, rend, mb(0.01));
  g.add_edge(ctrl, enc, mb(0.02));
  g.add_edge(cam0, md, mb(3.0));
  g.add_edge(cam1, md, mb(3.0));
  g.add_edge(db, om, mb(1.5));
  g.add_edge(md, filt, mb(5.5));
  g.add_edge(filt, om, mb(4.8));
  g.add_edge(om, rend, mb(2.2));
  g.add_edge(rend, enc, mb(2.0));
  g.add_edge(enc, store, mb(0.6));
  g.add_edge(enc, net, mb(0.6));
  return g;
}

AppGraph mms_dag() {
  AppGraph g;
  const auto cpu = g.add_node("cpu-ctrl", 0.8e6);
  const auto asic1 = g.add_node("asic1-vld", 2.0e6);
  const auto asic2 = g.add_node("asic2-iq", 1.2e6);
  const auto asic3 = g.add_node("asic3-idct", 3.5e6);
  const auto asic4 = g.add_node("asic4-mc", 2.4e6);
  const auto mem1 = g.add_node("mem1-frame", 0.1e6);
  const auto mem2 = g.add_node("mem2-ref", 0.1e6);
  const auto dsp5 = g.add_node("dsp5-me", 4.5e6);
  const auto dsp4 = g.add_node("dsp4-video-enc", 4.0e6);
  const auto dsp6 = g.add_node("dsp6-dct", 2.8e6);
  const auto dsp7 = g.add_node("dsp7-vlc", 1.6e6);
  const auto dsp1 = g.add_node("dsp1-audio-dec", 1.8e6);
  const auto dsp2 = g.add_node("dsp2-audio-fft", 2.2e6);
  const auto dsp3 = g.add_node("dsp3-audio-filt", 1.5e6);
  const auto mem3 = g.add_node("mem3-audio", 0.1e6);
  const auto dsp8 = g.add_node("dsp8-audio-enc", 2.0e6);

  auto kb = [](double k) { return k * 8192.0; };
  g.add_edge(cpu, asic1, kb(120));
  g.add_edge(asic1, asic2, kb(70));
  g.add_edge(asic2, asic3, kb(362));
  g.add_edge(asic3, asic4, kb(362));
  g.add_edge(asic4, mem1, kb(500));
  g.add_edge(cpu, mem2, kb(75));
  g.add_edge(mem2, dsp5, kb(670));
  g.add_edge(dsp5, dsp4, kb(380));
  g.add_edge(dsp4, dsp6, kb(362));
  g.add_edge(dsp6, dsp7, kb(362));
  g.add_edge(cpu, dsp1, kb(25));
  g.add_edge(dsp1, dsp2, kb(91));
  g.add_edge(dsp2, dsp3, kb(91));
  g.add_edge(dsp3, mem3, kb(32));
  g.add_edge(mem3, dsp8, kb(64));
  return g;
}

AppGraph surveillance_farm_graph(std::size_t cameras) {
  if (cameras == 0) {
    throw holms::InvalidArgument("surveillance_farm_graph: need >= 1 camera");
  }
  AppGraph g;
  auto mb = [](double m) { return m * 1e6 * 8.0; };

  // Shared front matter first so every edge runs low -> high index.
  const auto ui = g.add_node("user-input", 0.1e6);
  const auto ctrl = g.add_node("controller", 0.5e6);
  const auto db = g.add_node("pattern-db", 0.1e6);
  g.add_edge(ui, ctrl, mb(0.01));

  // Per-camera §3.2 front end: camera -> motion-detect -> filter -> match.
  std::vector<std::size_t> match(cameras);
  for (std::size_t c = 0; c < cameras; ++c) {
    const std::string tag = "-" + std::to_string(c);
    const auto cam = g.add_node("camera-in" + tag, 0.2e6);
    const auto md = g.add_node("motion-detect" + tag, 5.0e6);
    const auto filt = g.add_node("filtering" + tag, 3.2e6);
    const auto om = g.add_node("object-match" + tag, 6.5e6);
    g.add_edge(cam, md, mb(3.0));
    g.add_edge(md, filt, mb(5.5));
    g.add_edge(filt, om, mb(4.8));
    g.add_edge(db, om, mb(1.5));
    // Sparse control fan-out: poking every camera would make the controller
    // a star hub; every 8th pipeline keeps it a side channel.
    if (c % 8 == 0) g.add_edge(ctrl, md, mb(0.02));
    match[c] = om;
  }

  // Every 4 cameras share one rendering stage; renderers merge into the
  // encode -> {storage, net-out} back end.
  const std::size_t groups = (cameras + 3) / 4;
  std::vector<std::size_t> rend(groups);
  for (std::size_t r = 0; r < groups; ++r) {
    rend[r] = g.add_node("rendering-" + std::to_string(r), 2.5e6);
  }
  const auto enc = g.add_node("mpeg-encode", 4.8e6);
  const auto store = g.add_node("storage", 0.1e6);
  const auto net = g.add_node("net-out", 0.3e6);
  for (std::size_t c = 0; c < cameras; ++c) {
    g.add_edge(match[c], rend[c / 4], mb(2.2));
    // Match logs ride to storage directly (the forward stand-in for the
    // om -> pattern-db write-back of video_surveillance_graph()).
    g.add_edge(match[c], store, mb(0.05));
  }
  for (std::size_t r = 0; r < groups; ++r) {
    g.add_edge(rend[r], enc, mb(2.0));
  }
  g.add_edge(enc, store, mb(0.6));
  g.add_edge(enc, net, mb(0.6));
  return g;
}

}  // namespace holms::noc
