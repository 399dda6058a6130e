//! Shared test-configuration helper: one switch for how long the
//! long-horizon scenario tests run.
//!
//! The paper's headline experiments use horizons of 10 000–20 000 virtual
//! seconds and multi-replication studies. Those are cheap enough in release
//! mode but dominate `cargo test` wall-clock in debug builds, so the test
//! pyramid routes every long horizon through [`horizon`]:
//!
//! * profile **full** — the paper's numbers, exactly;
//! * profile **ci** — a reduced horizon *chosen per test site* such
//!   that every assertion still holds (the caller supplies both values;
//!   this module only picks which one applies). Assertions are never
//!   scaled — only runtime is.
//!
//! Select with `PRESENCE_TEST_PROFILE=full|ci`; the default is `ci`.

use std::env;

/// Which test profile is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper-exact horizons.
    Full,
    /// Reduced (but assertion-preserving) horizons for fast CI.
    Ci,
}

/// Reads `PRESENCE_TEST_PROFILE` (default: [`Profile::Ci`]).
///
/// # Panics
///
/// Panics on an unrecognised profile name, so a typo cannot silently
/// select the wrong profile.
#[must_use]
pub fn current() -> Profile {
    match env::var("PRESENCE_TEST_PROFILE") {
        Ok(v) if v.eq_ignore_ascii_case("full") => Profile::Full,
        Ok(v) if v.eq_ignore_ascii_case("ci") => Profile::Ci,
        Ok(other) => panic!("PRESENCE_TEST_PROFILE must be `full` or `ci`, got {other:?}"),
        Err(_) => Profile::Ci,
    }
}

/// Picks the scenario horizon for the current profile. `ci` must be chosen
/// by the test author so the test's assertions hold under it too.
#[must_use]
pub fn horizon(ci: f64, full: f64) -> f64 {
    match current() {
        Profile::Full => full,
        Profile::Ci => ci,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ci() {
        // The test environment does not set the variable.
        if env::var("PRESENCE_TEST_PROFILE").is_err() {
            assert_eq!(current(), Profile::Ci);
            assert_eq!(horizon(100.0, 20_000.0), 100.0);
        }
    }
}
