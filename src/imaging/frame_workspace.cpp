#include "imaging/frame_workspace.hpp"

namespace slj {

void build_rgb_integrals(const RgbImage& img, FrameWorkspace& ws) {
  const int w = img.width();
  const int h = img.height();
  ws.integral_r.assign(w, h, [&](int x, int y) { return static_cast<double>(img.at(x, y).r); });
  ws.integral_g.assign(w, h, [&](int x, int y) { return static_cast<double>(img.at(x, y).g); });
  ws.integral_b.assign(w, h, [&](int x, int y) { return static_cast<double>(img.at(x, y).b); });
}

}  // namespace slj
