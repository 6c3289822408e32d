//! Offline stand-in for the parts of `proptest` this workspace's test
//! suites use. The build environment has no network access, so the real
//! crate cannot be fetched; this shim keeps the property-test sources
//! unchanged.
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failing case reports its generated inputs
//!   (via `Debug` in the panic message where available) but is not
//!   minimized;
//! * sampling is plain pseudo-random from a fixed per-test seed, so runs
//!   are deterministic;
//! * `prop_assume!` rejections retry the case, with a global retry cap.
//!
//! Supported surface: `Strategy` (`prop_map`, `prop_flat_map`,
//! `prop_filter_map`, `boxed`), integer-range and tuple strategies,
//! `Just`, `prop_oneof!` (weighted and unweighted), `collection::vec`,
//! `bool::ANY`, `ProptestConfig::with_cases`, and the `proptest!`,
//! `prop_assert!`, `prop_assert_eq!`, `prop_assume!` macros.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG handed to strategies (re-exported so the macro can construct one).
pub type TestRng = StdRng;

/// Construct the deterministic RNG for one test run (used by `proptest!`;
/// a function so the expanded macro never names the `rand` shim, which the
/// calling crate does not depend on).
pub fn new_rng(seed: u64) -> TestRng {
    TestRng::seed_from_u64(seed)
}

/// Why a sampled case did not complete.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed: resample, don't count the case.
    Reject(String),
    /// `prop_assert*!` failed: the property is violated.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
///
/// `sample` returns `None` when the strategy (or a `prop_filter_map`
/// upstream) rejected the draw; the harness resamples.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Option<Self::Value>;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    fn prop_filter_map<U, F>(self, _whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// Object-safe sampling, used by [`BoxedStrategy`].
trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> Option<T>;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.sample(rng)
    }
}

/// A type-erased strategy (`Strategy::boxed`).
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn DynStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Option<T> {
        self.inner.sample_dyn(rng)
    }
}

/// `Strategy::prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> Option<U> {
        self.inner.sample(rng).map(&self.f)
    }
}

/// `Strategy::prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn sample(&self, rng: &mut TestRng) -> Option<T::Value> {
        let mid = self.inner.sample(rng)?;
        (self.f)(mid).sample(rng)
    }
}

/// `Strategy::prop_filter_map` adapter.
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> Option<U> {
        self.inner.sample(rng).and_then(&self.f)
    }
}

/// Constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

// Integer ranges as strategies.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> Option<$t> {
                if self.start >= self.end {
                    return None;
                }
                Some(rng.gen_range(self.start..self.end))
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> Option<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                if lo > hi {
                    return None;
                }
                if lo == hi {
                    return Some(lo);
                }
                // Sample lo..hi, then fold the inclusive upper bound back in
                // with its fair share of the probability mass.
                let span = (hi - lo) as u64 + 1;
                if rng.gen_range(0u64..span) == 0 {
                    return Some(hi);
                }
                Some(rng.gen_range(lo..hi))
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, usize, i64);

// Tuples of strategies.
macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($name,)+) = self;
                Some(($($name.sample(rng)?,)+))
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Weighted union of boxed strategies — the engine behind `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(
            total > 0,
            "prop_oneof! needs at least one arm with weight > 0"
        );
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Option<T> {
        let mut pick = rng.gen_range(0u32..self.total);
        for (w, arm) in &self.arms {
            if pick < *w {
                return arm.sample(rng);
            }
            pick -= w;
        }
        unreachable!("weights exhausted")
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Size ranges accepted by [`vec()`].
    pub trait SizeRange {
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    /// Vector of samples with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = if self.min == self.max {
                self.min
            } else {
                rng.gen_range(self.min..self.max + 1)
            };
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                // Retry rejected elements a few times before giving up on
                // the whole draw.
                let mut element = None;
                for _ in 0..16 {
                    if let Some(v) = self.element.sample(rng) {
                        element = Some(v);
                        break;
                    }
                }
                out.push(element?);
            }
            Some(out)
        }
    }
}

pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Uniform boolean strategy (`proptest::bool::ANY`).
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> Option<bool> {
            Some(rng.gen::<bool>())
        }
    }
}

/// Deterministic per-test seed derived from the test's module path + name.
pub fn seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! prop_oneof {
    // Weighted arms: `w => strategy, ...`
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($arm))),+
        ])
    };
    // Unweighted arms.
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($arm))),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = &$left;
        let r = &$right;
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = &$left;
        let r = &$right;
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l, r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = &$left;
        let r = &$right;
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// The harness macro. Parses an optional
/// `#![proptest_config(...)]` header followed by `#[test] fn name(pat in
/// strategy, ...) { body }` items, and expands each to a looping test.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::__run_proptest_case!(config, $name, ($($pat in $strategy),+), $body);
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name ( $($pat in $strategy),+ ) $body )*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __run_proptest_case {
    ($config:expr, $name:ident, ($($pat:pat in $strategy:expr),+), $body:block) => {{
        let cases = $config.cases.max(1);
        let max_attempts = cases.saturating_mul(20).max(1000);
        let mut rng: $crate::TestRng = $crate::new_rng($crate::seed_for(concat!(
            module_path!(),
            "::",
            stringify!($name)
        )));
        let mut completed = 0u32;
        let mut attempts = 0u32;
        while completed < cases {
            attempts += 1;
            if attempts > max_attempts {
                panic!(
                    "proptest '{}' exhausted {} attempts with only {}/{} cases \
                     accepted (too many rejections)",
                    stringify!($name), max_attempts, completed, cases
                );
            }
            let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                $(
                    let $pat = match $crate::Strategy::sample(&($strategy), &mut rng) {
                        Some(v) => v,
                        None => {
                            return ::std::result::Result::Err(
                                $crate::TestCaseError::reject("filtered draw"),
                            )
                        }
                    };
                )+
                let __body_unit: () = $body;
                let _ = __body_unit;
                ::std::result::Result::Ok(())
            })();
            match result {
                Ok(()) => completed += 1,
                Err($crate::TestCaseError::Reject(_)) => continue,
                Err($crate::TestCaseError::Fail(msg)) => panic!(
                    "proptest '{}' failed after {} cases: {}",
                    stringify!($name),
                    completed,
                    msg
                ),
            }
        }
    }};
}
