//! Offline stand-in for `proptest`.
//!
//! The build environment has no network access, so the real proptest cannot
//! be used. This shim implements the subset of its API that this workspace's
//! property tests exercise:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`Strategy`] with `prop_map`, integer and `f64` range strategies,
//!   tuple strategies (up to six), [`Just`], [`prop_oneof!`],
//!   `prop::collection::vec`, and [`any`] for `bool`, `u8`, `u32` and
//!   `u64`,
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` / `prop_assume!`.
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failing case reports its inputs' generating seed
//!   (`PROPTEST_CASE_SEED=<n>` reruns exactly that case) instead of a
//!   minimised counterexample;
//! * **deterministic by default** — the RNG is seeded from the test name,
//!   so runs are reproducible without a persistence file;
//! * `PROPTEST_CASES` sets the *default* case count (low for fast CI, high
//!   for soak runs); an explicit `ProptestConfig::with_cases` wins, as in
//!   real proptest.

#![forbid(unsafe_code)]

use std::env;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG — xoshiro256++ seeded via SplitMix64 (self-contained, deterministic).
// ---------------------------------------------------------------------------

/// Deterministic RNG driving test-case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TestRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut z = seed;
        Self {
            s: [
                splitmix64(&mut z),
                splitmix64(&mut z),
                splitmix64(&mut z),
                splitmix64(&mut z),
            ],
        }
    }

    /// Next raw 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)` (Lemire-free simple rejection).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases this strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among equally-weighted boxed strategies (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics on an empty option list.
    #[must_use]
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

// Integer range strategies.
macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u32, u64, usize, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.next_f64() * (self.end - self.start);
        // Guard the exclusive upper bound against floating-point rounding.
        if x >= self.end {
            self.end.next_down().max(self.start)
        } else {
            x
        }
    }
}

// Tuple strategies.
macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
);

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value of `Self`.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u32, u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The canonical strategy for an [`Arbitrary`] type.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the full-domain strategy for `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A size specification for generated collections.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_incl: r.end - 1,
            }
        }
    }

    /// Strategy producing `Vec`s of an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_incl - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Namespace mirror of the real crate (`prop::collection::vec`, ...).
pub mod prop {
    pub use crate::collection;
}

// ---------------------------------------------------------------------------
// Runner plumbing
// ---------------------------------------------------------------------------

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` failed — the case is skipped, not failed.
    Reject(String),
    /// `prop_assert!` failed — the test fails.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure.
    #[must_use]
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }

    /// Builds a rejection.
    #[must_use]
    pub fn reject(msg: String) -> Self {
        TestCaseError::Reject(msg)
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
    /// Maximum rejected (assumed-away) cases before giving up.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// A config with an explicit case count. Like real proptest, an
    /// explicit count wins over the `PROPTEST_CASES` environment variable
    /// (which only changes the *default*).
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Mirrors real proptest: PROPTEST_CASES sets the default case
        // count — lower for fast CI or higher for soak runs.
        let cases = env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig {
            cases,
            max_global_rejects: 65_536,
        }
    }
}

/// Runs `body` over `config.cases` generated cases. Used by [`proptest!`];
/// not part of the public API of real proptest.
pub fn run_cases(
    test_name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let forced_seed: Option<u64> = env::var("PROPTEST_CASE_SEED")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut name_hash = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        name_hash ^= u64::from(b);
        name_hash = name_hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // The configured count: `PROPTEST_CASES` is folded into the default.
    let cases = if forced_seed.is_some() {
        1
    } else {
        config.cases
    };
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut case_index = 0u64;
    while passed < cases {
        let case_seed = forced_seed.unwrap_or_else(|| {
            let mut z = name_hash ^ case_index.rotate_left(32);
            splitmix64(&mut z)
        });
        let mut rng = TestRng::from_seed(case_seed);
        match body(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(reason)) if forced_seed.is_some() => {
                // A forced case regenerates identically; retrying would just
                // spin to the reject cap with a misleading message.
                panic!(
                    "{test_name}: the case for PROPTEST_CASE_SEED={case_seed} is \
                     rejected by prop_assume! ({reason}); nothing to replay"
                );
            }
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected <= config.max_global_rejects,
                    "{test_name}: too many prop_assume! rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{test_name}: property failed after {passed} passing case(s): {msg}\n\
                     rerun just this case with PROPTEST_CASE_SEED={case_seed}"
                );
            }
        }
        case_index += 1;
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        prop_oneof, proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
        TestCaseError, TestRng, Union,
    };
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests. Each function body runs once per generated case;
/// `prop_assert*`/`prop_assume!` short-circuit the case.
#[macro_export]
macro_rules! proptest {
    (@fns ($config:expr)) => {};
    (@fns ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            $crate::run_cases(
                stringify!($name),
                &config,
                |rng: &mut $crate::TestRng| {
                    $(let $pat = $crate::Strategy::generate(&($strategy), rng);)+
                    $body
                    #[allow(unreachable_code)]
                    return Ok(());
                },
            );
        }
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts within a property; failure fails the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Asserts inequality within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Skips the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(format!($($fmt)+)));
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism() {
        let mut a = TestRng::from_seed(7);
        let mut b = TestRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let x = (5u64..10).generate(&mut rng);
            assert!((5..10).contains(&x));
            let y = (-3i32..4).generate(&mut rng);
            assert!((-3..4).contains(&y));
            let z = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&z));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..200 {
            let v = collection::vec(0u8..255, 2..7).generate(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    proptest! {
        #[test]
        fn macro_smoke(x in 0u64..100, (a, b) in (0u32..10, 0u32..10)) {
            prop_assume!(x != 55);
            prop_assert!(x < 100);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(x + 1, x);
        }
    }
}
