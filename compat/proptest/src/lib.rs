//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The relogic build environment has no network access to a crates.io
//! mirror, so the workspace vendors a minimal property-testing harness that
//! keeps proptest's surface syntax for the subset the test suites use:
//!
//! * [`Strategy`] with `prop_map`, `prop_recursive`, and `boxed`;
//! * strategies for numeric ranges, tuples (up to arity 10), [`any`],
//!   [`Just`], [`collection::vec`], and [`Union`] (via [`prop_oneof!`]);
//! * the [`proptest!`] macro with `#![proptest_config(...)]` support, and
//!   [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] /
//!   [`prop_assume!`].
//!
//! Differences from real proptest: cases are generated from a deterministic
//! per-test seed (derived from the test's name), there is **no shrinking**
//! (a failing case is reported verbatim), and `prop_assert*` panic rather
//! than returning `Err`.

#![warn(clippy::all)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// Everything a test module normally imports from proptest.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Runner configuration. Only `cases` is honoured by this stand-in.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Per-test driver: owns the deterministic RNG the strategies draw from.
#[derive(Debug)]
pub struct TestRunner {
    rng: SmallRng,
    cases: u32,
}

impl TestRunner {
    /// Creates a runner for the named test; the name seeds the RNG so each
    /// test sees a stable, independent case sequence.
    #[must_use]
    pub fn new(config: &ProptestConfig, test_name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRunner {
            rng: SmallRng::seed_from_u64(h),
            cases: config.cases,
        }
    }

    /// Number of cases to run.
    #[must_use]
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The RNG strategies sample from.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// A recipe for generating random values of an output type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut SmallRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: `self` is the leaf case and `recurse`
    /// produces one more level from the strategy for the level below. The
    /// result nests at most `depth` levels (sizes are bounded by
    /// construction, so `desired_size`/`expected_branch_size` are accepted
    /// for signature compatibility but unused).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + Clone + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut strat = self.clone().boxed();
        for _ in 0..depth {
            let deeper = recurse(strat).boxed();
            // Mostly recurse, sometimes bottom out early: weights 1:3.
            strat = Union {
                arms: vec![(1, self.clone().boxed()), (3, deeper)],
            }
            .boxed();
        }
        strat
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut SmallRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut SmallRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased, cheaply clonable [`Strategy`].
pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut SmallRng) -> T {
        self.0.sample_dyn(rng)
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Weighted choice between strategies of a common value type; what
/// [`prop_oneof!`] builds.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<T: Debug> Union<T> {
    /// Equal-weight union of the given strategies.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union {
            arms: arms.into_iter().map(|s| (1, s)).collect(),
        }
    }

    /// Weighted union of the given strategies.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty or all weights are zero.
    #[must_use]
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        assert!(arms.iter().any(|&(w, _)| w > 0), "all weights are zero");
        Union { arms }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut SmallRng) -> T {
        let total: u32 = self.arms.iter().map(|&(w, _)| w).sum();
        let mut pick = rng.gen_range(0..total);
        for (w, s) in &self.arms {
            if pick < *w {
                return s.sample(rng);
            }
            pick -= w;
        }
        unreachable!("weighted pick out of range")
    }
}

/// Strategy that always yields a fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Debug + Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn arbitrary(rng: &mut SmallRng) -> $t {
                use rand::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> bool {
        rng.gen()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut SmallRng) -> f64 {
        rng.gen_range(0.0f64..=1.0)
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy for any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! tuple_strategy {
    ($(($($S:ident . $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn sample(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy!((A.0)(A.0, B.1)(A.0, B.1, C.2)(A.0, B.1, C.2, D.3)(
    A.0, B.1, C.2, D.3, E.4
)(A.0, B.1, C.2, D.3, E.4, F.5)(
    A.0, B.1, C.2, D.3, E.4, F.5, G.6
)(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)(
    A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8
)(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9));

/// Collection strategies.
pub mod collection {
    use super::{SmallRng, Strategy};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec`](fn@vec): a fixed size or a size range.
    pub trait IntoSizeRange {
        /// Inclusive lower and upper length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start() <= self.end(), "empty vec size range");
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec<S::Value>` with lengths drawn from `size`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Generates vectors of values from `element` with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min..=self.max);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// Chooses between strategies (optionally `weight => strategy` arms).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (@cfg($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::new(&config, stringify!($name));
                // A tuple of strategies is itself a strategy for a tuple.
                let strategies = ( $( ($strat), )+ );
                for case in 0..runner.cases() {
                    let values = $crate::Strategy::sample(&strategies, runner.rng());
                    let described = format!("{values:?}");
                    let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                        || {
                            let ( $($pat,)+ ) = values;
                            $body
                        },
                    ));
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest: {} failed at case {case} (no shrinking) with input {described}",
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRunner;

    #[test]
    fn union_respects_weights_roughly() {
        let mut runner = TestRunner::new(&ProptestConfig::with_cases(1), "w");
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let hits = (0..1000).filter(|_| s.sample(runner.rng())).count();
        assert!(hits > 800, "{hits}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 0.0f64..=0.5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..=0.5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn mapped_values_compose(n in (0u8..10).prop_map(|b| u32::from(b) * 2)) {
            prop_assert_eq!(n % 2, 0);
            prop_assert!(n < 20);
        }
    }
}
