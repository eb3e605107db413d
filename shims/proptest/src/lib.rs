//! Offline replacement for the subset of `proptest` this workspace
//! uses: the [`proptest!`] test macro, integer-range / tuple /
//! `prop_map` / `collection::vec` / `any::<T>()` strategies, and the
//! `prop_assert*` family.
//!
//! Generation is purely random (deterministic SplitMix64 stream per
//! case index) with **no shrinking** — a failing case reports its
//! inputs via the assertion message instead.

pub mod strategy;

pub use strategy::Strategy;

/// Deterministic RNG: SplitMix64. Stable across runs and platforms so
/// failures are reproducible by case number.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A stream seeded from the case index.
    pub fn for_case(case: u32) -> TestRng {
        TestRng {
            state: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A failed property, carrying the formatted assertion message.
#[derive(Debug)]
pub struct TestCaseError {
    /// Human-readable failure description.
    pub message: String,
}

impl TestCaseError {
    /// Builds a failure from a message.
    pub fn fail(message: String) -> TestCaseError {
        TestCaseError { message }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Everything a test file needs with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig};
}

/// Declares property tests. Matches the real macro's surface for
/// blocks of the form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0u8..10, v in proptest::collection::vec(any::<u8>(), 0..32)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng = $crate::TestRng::for_case(case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let run = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                };
                if let Err(e) = run() {
                    panic!("proptest case {case}/{} failed: {}", cfg.cases, e.message);
                }
            }
        }
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
}

/// Fails the current case unless `cond` holds. Usable only inside a
/// [`proptest!`] body (it early-returns a [`TestCaseError`]).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert!(left == right)` with value reporting.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// `prop_assert!(left != right)` with value reporting.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// `proptest::collection` — vector strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::TestRng;

    /// Element-count bounds for [`vec()`]. Converted from the same range
    /// shapes the real crate accepts.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                min: n,
                max_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_inclusive - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(
            a in 3u8..9,
            b in 10u16..=20,
            c in -5i32..5,
            pick in any::<bool>(),
        ) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((10..=20).contains(&b));
            prop_assert!((-5..5).contains(&c));
            prop_assert!(usize::from(pick) <= 1);
        }

        #[test]
        fn vec_and_tuple_strategies(
            items in crate::collection::vec((0u16..8, any::<bool>()), 1..40),
            nested in crate::collection::vec(crate::collection::vec(any::<u8>(), 0..4), 0..6),
        ) {
            prop_assert!(!items.is_empty() && items.len() < 40);
            for (v, _) in &items {
                prop_assert!(*v < 8);
            }
            prop_assert!(nested.len() < 6);
        }

        #[test]
        fn prop_map_transforms(x in (0u32..100).prop_map(|v| v * 2)) {
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x, 199, "odd value cannot appear");
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = crate::TestRng::for_case(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::TestRng::for_case(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }
}
