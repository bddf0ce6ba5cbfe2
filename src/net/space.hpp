#pragma once
// The bounded free-space the hosts roam (the paper's 100 x 100 field), plus
// the policy for what happens when a movement step would leave it. A field
// with depth 0 is the classic planar world; a positive depth turns it into
// an axis-aligned box and every z coordinate participates in folding.

#include <cstdint>
#include <string>

#include "core/enum_names.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// What to do when a displacement would exit the field. The paper does not
/// specify; kClamp keeps the host at the wall (our default), kReflect
/// bounces it, kWrap folds positions modulo the field size. Note kWrap only
/// folds *positions*: link distance stays Euclidean, so hosts near opposite
/// edges are far apart and do not link (the field is not a torus for the
/// radio).
enum class BoundaryPolicy : std::uint8_t { kClamp, kReflect, kWrap };

constexpr auto enum_names(BoundaryPolicy) {
  return std::to_array<EnumName<BoundaryPolicy>>(
      {{BoundaryPolicy::kClamp, "clamp"},
       {BoundaryPolicy::kReflect, "reflect"},
       {BoundaryPolicy::kWrap, "wrap"}});
}

/// Axis-aligned field [0, width] x [0, height] (x [0, depth] when 3-D).
class Field {
 public:
  Field(double width, double height,
        BoundaryPolicy policy = BoundaryPolicy::kClamp);
  Field(double width, double height, double depth,
        BoundaryPolicy policy = BoundaryPolicy::kClamp);

  [[nodiscard]] double width() const noexcept { return width_; }
  [[nodiscard]] double height() const noexcept { return height_; }
  /// 0 for a planar field; the z extent otherwise.
  [[nodiscard]] double depth() const noexcept { return depth_; }
  [[nodiscard]] bool is_3d() const noexcept { return depth_ > 0.0; }
  [[nodiscard]] BoundaryPolicy policy() const noexcept { return policy_; }

  [[nodiscard]] bool contains(Vec3 p) const noexcept;

  /// Applies displacement `delta` to `pos` and folds the result back into
  /// the field per the boundary policy.
  [[nodiscard]] Vec3 move(Vec3 pos, Vec3 delta) const;

  /// Folds an arbitrary point into the field per the boundary policy. In a
  /// planar field z is forced to exactly 0 so stray vertical displacement
  /// can never leak into distances.
  [[nodiscard]] Vec3 confine(Vec3 p) const;

  /// The paper's standard field: 100 x 100, clamping walls.
  static Field paper_field() { return {100.0, 100.0, BoundaryPolicy::kClamp}; }

 private:
  [[nodiscard]] static double fold(double v, double limit,
                                   BoundaryPolicy policy);

  double width_;
  double height_;
  double depth_;
  BoundaryPolicy policy_;
};

}  // namespace pacds
