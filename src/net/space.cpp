#include "net/space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pacds {

Field::Field(double width, double height, BoundaryPolicy policy)
    : Field(width, height, 0.0, policy) {}

Field::Field(double width, double height, double depth, BoundaryPolicy policy)
    : width_(width), height_(height), depth_(depth), policy_(policy) {
  if (!(width > 0.0) || !(height > 0.0)) {
    throw std::invalid_argument("Field: dimensions must be positive");
  }
  if (!(depth >= 0.0)) {
    throw std::invalid_argument("Field: depth must be non-negative");
  }
}

bool Field::contains(Vec3 p) const noexcept {
  return p.x >= 0.0 && p.x <= width_ && p.y >= 0.0 && p.y <= height_ &&
         p.z >= 0.0 && p.z <= depth_;
}

double Field::fold(double v, double limit, BoundaryPolicy policy) {
  switch (policy) {
    case BoundaryPolicy::kClamp:
      return std::clamp(v, 0.0, limit);
    case BoundaryPolicy::kReflect: {
      // Reflect off both walls as many times as needed: the position follows
      // a triangle wave of period 2*limit.
      const double period = 2.0 * limit;
      double m = std::fmod(v, period);
      if (m < 0.0) m += period;
      return m <= limit ? m : period - m;
    }
    case BoundaryPolicy::kWrap: {
      double m = std::fmod(v, limit);
      if (m < 0.0) m += limit;
      return m;
    }
  }
  return v;
}

Vec3 Field::confine(Vec3 p) const {
  // A planar field pins z to exactly 0 rather than folding: fmod(v, 0) is
  // NaN and reflect's period would be 0, so folding only makes sense for a
  // positive extent.
  const double z = is_3d() ? fold(p.z, depth_, policy_) : 0.0;
  return {fold(p.x, width_, policy_), fold(p.y, height_, policy_), z};
}

Vec3 Field::move(Vec3 pos, Vec3 delta) const { return confine(pos + delta); }

}  // namespace pacds
