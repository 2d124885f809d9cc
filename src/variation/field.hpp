#pragma once
// Systematic across-field process variation: the effective gate length of
// a transistor depends on its position in the stepper exposure field
// through lens aberration / illumination nonuniformity.  Following the
// paper (and Cain's 130 nm measurements it scales from), the systematic
// component is a second-order polynomial of field position (Eq. 1):
//
//   f(x, y) = a x^2 + b y^2 + c x + d y + e xy + intercept   [x,y in mm]
//
// scaled so that the maximum systematic deviation across the 28 mm x
// 28 mm exposure field is +/- 5.5 % of nominal Lgate, slowest (longest
// Lgate) in the lower-left corner — the Fig. 2 map.

#include <string>

#include "liberty/physics.hpp"
#include "util/geometry.hpp"

namespace vipvt {

struct PolyCoeffs {
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0, e = 0.0, intercept = 0.0;

  double eval(double x, double y) const {
    return a * x * x + b * y * y + c * x + d * y + e * x * y + intercept;
  }
};

class ExposureField {
 public:
  /// `coeffs` is the raw polynomial shape; it is affinely rescaled at
  /// construction so deviations span exactly +/- max_dev_frac * lgate_nom
  /// over the field.
  ExposureField(PolyCoeffs coeffs, double field_mm, double lgate_nom_nm,
                double max_dev_frac);

  /// The paper's configuration: 28 mm field, 65 nm nominal, +/- 5.5 %,
  /// slow corner at (0,0).
  static ExposureField scaled_65nm(const CharParams& cp);

  double field_mm() const { return field_mm_; }
  double lgate_nom() const { return lgate_nom_; }
  double max_dev_frac() const { return max_dev_frac_; }

  /// Systematic Lgate [nm] at a field position [mm]; positions are
  /// clamped to the field.
  double lgate_at(double x_mm, double y_mm) const;
  /// Fractional deviation from nominal at a field position.
  double deviation_at(double x_mm, double y_mm) const;

  /// ASCII rendering of the map over an n x n grid (Fig. 2 output).
  std::string ascii_map(int n) const;

 private:
  PolyCoeffs coeffs_;  // rescaled: eval() returns fractional deviation
  double field_mm_;
  double lgate_nom_;
  double max_dev_frac_;
};

/// Placement of a die (chip) on the exposure field plus the position of
/// the processor core inside the chip; converts core-local placement
/// coordinates [um] to field coordinates [mm].
struct DieLocation {
  /// 14x14 chip at the slow corner of the 28 mm exposure field, so the
  /// chip spans the full systematic gradient of Fig. 2 (slowest at its
  /// lower-left corner A, near-nominal at its upper-right corner D).
  Point chip_origin_mm{0.0, 0.0};
  Point core_origin_mm{0.0, 0.0};  ///< core lower-left inside the chip

  Point field_mm(Point cell_pos_um) const {
    return {chip_origin_mm.x + core_origin_mm.x + cell_pos_um.x * 1e-3,
            chip_origin_mm.y + core_origin_mm.y + cell_pos_um.y * 1e-3};
  }

  /// The paper's four reference core positions along the chip diagonal:
  /// A (lower-left, worst), B, C, D (upper-right, best).  `chip_mm` is the
  /// chip edge length; the core is assumed small relative to the chip.
  static DieLocation point(char which, double chip_mm = 14.0);
};

}  // namespace vipvt
