// Watch the backbone adapt as hosts roam: renders a few update intervals of
// the paper's mobility model as ASCII frames, with gateways drawn as '#'
// and ordinary hosts as 'o'. Also reports how much of the network the
// localized updater actually had to re-evaluate each interval.
//
//   $ ./mobility_playground [frames]

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "net/mobility.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"

namespace {

using namespace pacds;

constexpr int kCols = 50;
constexpr int kRows = 25;

void render(const std::vector<Vec2>& positions, const DynBitset& gateways,
            const Field& field) {
  std::vector<std::string> canvas(kRows, std::string(kCols, '.'));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const int col = std::min(
        kCols - 1,
        static_cast<int>(positions[i].x / field.width() * kCols));
    const int row = std::min(
        kRows - 1,
        static_cast<int>(positions[i].y / field.height() * kRows));
    canvas[static_cast<std::size_t>(kRows - 1 - row)]
          [static_cast<std::size_t>(col)] = gateways.test(i) ? '#' : 'o';
  }
  for (const std::string& line : canvas) std::cout << line << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const int frames = argc > 1 ? std::atoi(argv[1]) : 6;
  Xoshiro256 rng(4242);
  const Field field = Field::paper_field();

  auto placed =
      random_connected_placement(35, field, kPaperRadius, rng, 2000);
  if (!placed) {
    std::cerr << "no connected placement found\n";
    return 1;
  }
  std::vector<Vec2> positions = std::move(placed->positions);

  // The incremental updater demonstrates the paper's locality feature:
  // after each movement step we feed it only the changed links.
  IncrementalCds cds(placed->graph, RuleSet::kND);
  PaperJumpMobility mobility;  // c = 0.5, jumps 1..6, 8 directions

  for (int frame = 0; frame < frames; ++frame) {
    std::cout << "frame " << frame << ": " << cds.gateways().count()
              << " gateways (# = gateway, o = host)";
    if (frame > 0) {
      std::cout << ", localized update touched " << cds.last_touched() << "/"
                << positions.size() << " hosts";
    }
    std::cout << "\n";
    render(positions, cds.gateways(), field);
    std::cout << "\n";

    // Advance one update interval and diff the unit-disk graph.
    mobility.step(positions, field, rng);
    const Graph next = build_udg(positions, kPaperRadius);
    EdgeDelta delta;
    for (NodeId u = 0; u < next.num_nodes(); ++u) {
      for (NodeId v = static_cast<NodeId>(u + 1); v < next.num_nodes(); ++v) {
        const bool before = cds.graph().has_edge(u, v);
        const bool after = next.has_edge(u, v);
        if (after && !before) delta.added.emplace_back(u, v);
        if (!after && before) delta.removed.emplace_back(u, v);
      }
    }
    cds.advance(delta, {});
  }
  return 0;
}
