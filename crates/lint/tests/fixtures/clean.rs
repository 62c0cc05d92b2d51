//! A fixture that must lint clean under every rule family: public raw
//! floats carry units, and the hot loop does not allocate.
//! (Fixture — never compiled.)

pub struct Outcome {
    pub energy_mj: f64,
    pub latency_ms: f64,
    pub area_mm2: f64,
    pub utilization: f64,
}

/// Raw-float parameters carry unit components, so `unit-suffix-params`
/// stays silent.
pub fn accumulate(energy_mj: f64, duration_s: f64) -> f64 {
    energy_mj / duration_s
}

// lint:hot clean hot loop: scans without allocating
pub fn hot_scan(samples: &[f64]) -> f64 {
    let mut peak = 0.0f64;
    for &s in samples {
        peak = peak.max(s);
    }
    peak
}

#[cfg(test)]
mod tests {
    pub fn bare_names_are_fine_here(energy: f64) -> f64 {
        energy
    }
}
