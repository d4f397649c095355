//! The paper's Table I MTJ simulation parameters.

use crate::error::{MtjError, Result};

/// MTJ device parameters, reproducing the paper's Table I plus the two
/// standard quantities the table leaves implicit (free-layer thickness and
/// the read voltage), with the conventional values noted on each field.
///
/// All fields are public because this is passive configuration data; use
/// [`MtjParams::validate`] (or any consumer constructor, which validates
/// internally) before trusting hand-edited values.
///
/// # Example
///
/// ```
/// use tcim_mtj::MtjParams;
///
/// let p = MtjParams::table_i();
/// assert_eq!(p.surface_length_nm, 40.0);
/// assert_eq!(p.tmr, 1.0);          // 100 %
/// p.validate()?;
/// # Ok::<(), tcim_mtj::MtjError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MtjParams {
    /// MTJ surface length (nm). Table I: 40 nm.
    pub surface_length_nm: f64,
    /// MTJ surface width (nm). Table I: 40 nm.
    pub surface_width_nm: f64,
    /// Spin Hall angle (dimensionless). Table I: 0.3. Used by the
    /// SHE-assisted write option; the plain STT write path does not need it.
    pub spin_hall_angle: f64,
    /// Resistance–area product (Ω·m²). Table I: 10⁻¹² Ω·m² (= 10 Ω·µm²).
    pub ra_product_ohm_m2: f64,
    /// Oxide (MgO) barrier thickness (nm). Table I: 0.82 nm.
    pub oxide_thickness_nm: f64,
    /// Tunnel magnetoresistance ratio as a fraction. Table I: 100 % → 1.0.
    pub tmr: f64,
    /// Saturation magnetization `M_s` (A/m). Table I: 10⁶ A/m.
    pub saturation_magnetization_a_per_m: f64,
    /// Gilbert damping constant `α`. Table I: 0.03.
    pub gilbert_damping: f64,
    /// Perpendicular magnetic anisotropy field `H_k` (A/m).
    /// Table I: 4.5 × 10⁵ A/m.
    pub anisotropy_field_a_per_m: f64,
    /// Operating temperature (K). Table I: 300 K.
    pub temperature_k: f64,
    /// Free-layer thickness (nm). Not in Table I; 1.3 nm is the
    /// conventional perpendicular free-layer value.
    pub free_layer_thickness_nm: f64,
    /// Read voltage across BL/SL (V). Not in Table I; 50 mV keeps the read
    /// current a safe factor below the critical current.
    pub read_voltage_v: f64,
    /// Write voltage across BL/SL (V). Not in Table I; 0.5 V is typical
    /// for 45 nm STT-MRAM designs (also NVSim's default regime).
    pub write_voltage_v: f64,
}

impl MtjParams {
    /// The exact Table I configuration.
    pub fn table_i() -> Self {
        MtjParams {
            surface_length_nm: 40.0,
            surface_width_nm: 40.0,
            spin_hall_angle: 0.3,
            ra_product_ohm_m2: 1.0e-12,
            oxide_thickness_nm: 0.82,
            tmr: 1.0,
            saturation_magnetization_a_per_m: 1.0e6,
            gilbert_damping: 0.03,
            anisotropy_field_a_per_m: 4.5e5,
            temperature_k: 300.0,
            free_layer_thickness_nm: 1.3,
            read_voltage_v: 0.05,
            write_voltage_v: 0.5,
        }
    }

    /// Junction area in m².
    pub fn area_m2(&self) -> f64 {
        self.surface_length_nm * 1e-9 * self.surface_width_nm * 1e-9
    }

    /// Free-layer volume in m³.
    pub fn free_layer_volume_m3(&self) -> f64 {
        self.area_m2() * self.free_layer_thickness_nm * 1e-9
    }

    /// Spin polarization `P` from Julliere's relation
    /// `TMR = 2P² / (1 − P²)`.
    pub fn spin_polarization(&self) -> f64 {
        (self.tmr / (self.tmr + 2.0)).sqrt()
    }

    /// Checks that every parameter is physical.
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<()> {
        let positives = [
            ("surface_length_nm", self.surface_length_nm),
            ("surface_width_nm", self.surface_width_nm),
            ("ra_product_ohm_m2", self.ra_product_ohm_m2),
            ("oxide_thickness_nm", self.oxide_thickness_nm),
            ("tmr", self.tmr),
            ("saturation_magnetization_a_per_m", self.saturation_magnetization_a_per_m),
            ("gilbert_damping", self.gilbert_damping),
            ("anisotropy_field_a_per_m", self.anisotropy_field_a_per_m),
            ("temperature_k", self.temperature_k),
            ("free_layer_thickness_nm", self.free_layer_thickness_nm),
            ("read_voltage_v", self.read_voltage_v),
            ("write_voltage_v", self.write_voltage_v),
        ];
        for (name, value) in positives {
            if !(value > 0.0 && value.is_finite()) {
                return Err(MtjError::InvalidParameter {
                    name,
                    value,
                    requirement: "positive and finite",
                });
            }
        }
        if !(0.0..=1.0).contains(&self.spin_hall_angle) {
            return Err(MtjError::InvalidParameter {
                name: "spin_hall_angle",
                value: self.spin_hall_angle,
                requirement: "within [0, 1]",
            });
        }
        if self.gilbert_damping >= 1.0 {
            return Err(MtjError::InvalidParameter {
                name: "gilbert_damping",
                value: self.gilbert_damping,
                requirement: "well below 1",
            });
        }
        Ok(())
    }
}

impl Default for MtjParams {
    fn default() -> Self {
        MtjParams::table_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_is_valid() {
        MtjParams::table_i().validate().unwrap();
    }

    #[test]
    fn area_and_volume() {
        let p = MtjParams::table_i();
        assert!((p.area_m2() - 1.6e-15).abs() < 1e-20);
        assert!((p.free_layer_volume_m3() - 2.08e-24).abs() < 1e-28);
    }

    #[test]
    fn julliere_polarization_for_100_percent_tmr() {
        // TMR = 1 → P = sqrt(1/3) ≈ 0.577.
        let p = MtjParams::table_i();
        assert!((p.spin_polarization() - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rejects_nonpositive_fields() {
        let mut p = MtjParams::table_i();
        p.tmr = 0.0;
        assert!(matches!(p.validate(), Err(MtjError::InvalidParameter { name: "tmr", .. })));
        let mut p = MtjParams::table_i();
        p.temperature_k = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_unphysical_damping_and_hall_angle() {
        let mut p = MtjParams::table_i();
        p.gilbert_damping = 1.5;
        assert!(p.validate().is_err());
        let mut p = MtjParams::table_i();
        p.spin_hall_angle = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn default_is_table_i() {
        assert_eq!(MtjParams::default(), MtjParams::table_i());
    }
}
