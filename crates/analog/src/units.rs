//! Newtype quantities used throughout the analog and architecture models.
//!
//! All quantities wrap `f64` and carry their canonical unit in the name of
//! the constructor (`Energy::from_femtojoules`, `Time::from_picoseconds`,
//! `Area::from_square_microns`, …). Arithmetic is provided where it is
//! physically meaningful (adding energies, scaling by counts, dividing energy
//! by time to obtain power, …).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw magnitude in the type's canonical unit.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two quantities.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Whether the quantity is (exactly) zero.
            pub fn is_zero(self) -> bool {
                // The one sanctioned exact-zero check: ±0.0 are both "no
                // quantity", so .to_bits() would be wrong here.
                self.0 == 0.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// An energy, stored internally in femtojoules.
    Energy,
    "fJ"
);
quantity!(
    /// A time duration, stored internally in picoseconds.
    Time,
    "ps"
);
quantity!(
    /// A silicon area, stored internally in square microns.
    Area,
    "um^2"
);
quantity!(
    /// An electrical resistance, stored internally in ohms.
    Resistance,
    "ohm"
);
quantity!(
    /// An electrical capacitance, stored internally in femtofarads.
    Capacitance,
    "fF"
);
quantity!(
    /// An electric current, stored internally in microamperes.
    Current,
    "uA"
);
quantity!(
    /// An electric potential, stored internally in volts.
    Voltage,
    "V"
);

impl Energy {
    /// Creates an energy from femtojoules.
    pub fn from_femtojoules(fj: f64) -> Self {
        Self(fj)
    }

    /// Creates an energy from picojoules.
    pub fn from_picojoules(pj: f64) -> Self {
        Self(pj * 1e3)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nanojoules(nj: f64) -> Self {
        Self(nj * 1e6)
    }

    /// Creates an energy from millijoules.
    pub fn from_millijoules(mj: f64) -> Self {
        Self(mj * 1e12)
    }

    /// The energy in femtojoules.
    pub fn as_femtojoules(self) -> f64 {
        self.0
    }

    /// The energy in picojoules.
    pub fn as_picojoules(self) -> f64 {
        self.0 / 1e3
    }

    /// The energy in nanojoules.
    pub fn as_nanojoules(self) -> f64 {
        self.0 / 1e6
    }

    /// The energy in microjoules.
    pub fn as_microjoules(self) -> f64 {
        self.0 / 1e9
    }

    /// The energy in millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.0 / 1e12
    }

    /// The energy in joules.
    pub fn as_joules(self) -> f64 {
        self.0 / 1e15
    }
}

impl Time {
    /// Creates a time from picoseconds.
    pub fn from_picoseconds(ps: f64) -> Self {
        Self(ps)
    }

    /// Creates a time from nanoseconds.
    pub fn from_nanoseconds(ns: f64) -> Self {
        Self(ns * 1e3)
    }

    /// Creates a time from microseconds.
    pub fn from_microseconds(us: f64) -> Self {
        Self(us * 1e6)
    }

    /// Creates a time from milliseconds.
    pub fn from_milliseconds(ms: f64) -> Self {
        Self(ms * 1e9)
    }

    /// Creates a time from seconds.
    pub fn from_seconds(s: f64) -> Self {
        Self(s * 1e12)
    }

    /// The duration in picoseconds.
    pub fn as_picoseconds(self) -> f64 {
        self.0
    }

    /// The duration in nanoseconds.
    pub fn as_nanoseconds(self) -> f64 {
        self.0 / 1e3
    }

    /// The duration in microseconds.
    pub fn as_microseconds(self) -> f64 {
        self.0 / 1e6
    }

    /// The duration in milliseconds.
    pub fn as_milliseconds(self) -> f64 {
        self.0 / 1e9
    }

    /// The duration in seconds.
    pub fn as_seconds(self) -> f64 {
        self.0 / 1e12
    }
}

impl Area {
    /// Creates an area from square microns.
    pub fn from_square_microns(um2: f64) -> Self {
        Self(um2)
    }

    /// Creates an area from square millimetres.
    pub fn from_square_millimeters(mm2: f64) -> Self {
        Self(mm2 * 1e6)
    }

    /// The area in square microns.
    pub fn as_square_microns(self) -> f64 {
        self.0
    }

    /// The area in square millimetres.
    pub fn as_square_millimeters(self) -> f64 {
        self.0 / 1e6
    }
}

impl Resistance {
    /// Creates a resistance from ohms.
    pub fn from_ohms(ohms: f64) -> Self {
        Self(ohms)
    }

    /// Creates a resistance from kilo-ohms.
    pub fn from_kilohms(kohms: f64) -> Self {
        Self(kohms * 1e3)
    }

    /// Creates a resistance from mega-ohms.
    pub fn from_megohms(mohms: f64) -> Self {
        Self(mohms * 1e6)
    }

    /// The resistance in ohms.
    pub fn as_ohms(self) -> f64 {
        self.0
    }

    /// The conductance (1/R) in siemens.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the resistance is zero.
    pub fn conductance_siemens(self) -> f64 {
        // Debug guard against the exact division-by-zero value, not an
        // approximate comparison.
        debug_assert!(self.0 != 0.0, "conductance of a zero resistance");
        1.0 / self.0
    }
}

impl Capacitance {
    /// Creates a capacitance from femtofarads.
    pub fn from_femtofarads(ff: f64) -> Self {
        Self(ff)
    }

    /// Creates a capacitance from picofarads.
    pub fn from_picofarads(pf: f64) -> Self {
        Self(pf * 1e3)
    }

    /// The capacitance in femtofarads.
    pub fn as_femtofarads(self) -> f64 {
        self.0
    }

    /// The capacitance in farads.
    pub fn as_farads(self) -> f64 {
        self.0 * 1e-15
    }
}

impl Current {
    /// Creates a current from microamperes.
    pub fn from_microamps(ua: f64) -> Self {
        Self(ua)
    }

    /// Creates a current from milliamperes.
    pub fn from_milliamps(ma: f64) -> Self {
        Self(ma * 1e3)
    }

    /// The current in microamperes.
    pub fn as_microamps(self) -> f64 {
        self.0
    }

    /// The current in amperes.
    pub fn as_amps(self) -> f64 {
        self.0 * 1e-6
    }
}

impl Voltage {
    /// Creates a voltage from volts.
    pub fn from_volts(v: f64) -> Self {
        Self(v)
    }

    /// The voltage in volts.
    pub fn as_volts(self) -> f64 {
        self.0
    }
}

/// Power in watts, produced by dividing [`Energy`] by [`Time`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power(f64);

impl Power {
    /// Creates a power from watts.
    pub fn from_watts(w: f64) -> Self {
        Self(w)
    }

    /// Creates a power from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Self(mw / 1e3)
    }

    /// The power in watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// The power in milliwatts.
    pub fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} W", self.0)
    }
}

impl Energy {
    /// The average power of dissipating this energy over the given duration.
    pub fn over(self, duration: Time) -> Power {
        Power::from_watts(self.as_joules() / duration.as_seconds())
    }
}

impl Voltage {
    /// Ohm's law: the current driven through a resistance by this voltage.
    pub fn across(self, resistance: Resistance) -> Current {
        Current::from_microamps(self.as_volts() / resistance.as_ohms() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_conversions() {
        let e = Energy::from_picojoules(1.5);
        assert!((e.as_femtojoules() - 1500.0).abs() < 1e-9);
        assert!((Energy::from_millijoules(2.0).as_joules() - 2e-3).abs() < 1e-12);
        assert!((Energy::from_nanojoules(3.0).as_microjoules() - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn time_unit_conversions() {
        assert!((Time::from_nanoseconds(25.0).as_picoseconds() - 25_000.0).abs() < 1e-9);
        assert!((Time::from_seconds(1.0).as_milliseconds() - 1000.0).abs() < 1e-9);
        assert!((Time::from_microseconds(2.0).as_nanoseconds() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn area_conversions() {
        let sub_chip = Area::from_square_millimeters(0.86);
        assert!((sub_chip.as_square_microns() - 860_000.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: Energy = (0..10).map(|_| Energy::from_femtojoules(37.5)).sum();
        assert!((total.as_femtojoules() - 375.0).abs() < 1e-9);
        let scaled = Energy::from_femtojoules(2.0) * 3.0;
        assert!((scaled.as_femtojoules() - 6.0).abs() < 1e-12);
        let ratio = Energy::from_picojoules(1.0) / Energy::from_femtojoules(500.0);
        assert!((ratio - 2.0).abs() < 1e-12);
        let diff = Time::from_nanoseconds(5.0) - Time::from_nanoseconds(2.0);
        assert!((diff.as_nanoseconds() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn power_from_energy_over_time() {
        // 1 nJ dissipated over 1 us is 1 mW.
        let p = Energy::from_nanojoules(1.0).over(Time::from_microseconds(1.0));
        assert!((p.as_milliwatts() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ohms_law() {
        // 1.2 V across 1 Mohm drives 1.2 uA.
        let i = Voltage::from_volts(1.2).across(Resistance::from_megohms(1.0));
        assert!((i.as_microamps() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn conductance_is_reciprocal_resistance() {
        let r = Resistance::from_kilohms(50.0);
        assert!((r.conductance_siemens() - 2e-5).abs() < 1e-12);
    }

    #[test]
    fn comparisons_and_zero() {
        assert!(Energy::from_femtojoules(2.0) > Energy::from_femtojoules(1.0));
        assert!(Energy::ZERO.is_zero());
        assert_eq!(
            Energy::from_femtojoules(4.0).max(Energy::from_femtojoules(7.0)),
            Energy::from_femtojoules(7.0)
        );
        assert_eq!(
            Time::from_picoseconds(4.0).min(Time::from_picoseconds(7.0)),
            Time::from_picoseconds(4.0)
        );
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(Energy::from_femtojoules(5.0).to_string(), "5 fJ");
        assert_eq!(Time::from_picoseconds(50.0).to_string(), "50 ps");
        assert!(Power::from_watts(2.0).to_string().contains('W'));
    }
}
