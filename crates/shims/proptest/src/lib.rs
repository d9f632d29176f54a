//! Offline, API-compatible stand-in for the parts of `proptest` this
//! workspace uses.
//!
//! The build environment has no network access, so the real `proptest`
//! cannot be fetched. This shim keeps the same *authoring* surface — the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map` / `prop_filter`,
//! [`collection::vec`] / [`collection::btree_set`], [`any`], the
//! [`proptest!`] macro with `#![proptest_config(…)]`, and the
//! `prop_assert*` / `prop_assume!` macros — but runs each property as a
//! plain randomized loop: deterministic seeding per test name (generation
//! itself delegates to the workspace's `rand` shim, as real proptest builds
//! on the rand crate), the case count taken from [`ProptestConfig`]
//! (overridable via the
//! `PROPTEST_CASES` environment variable, as in the real crate), and **no
//! shrinking** — a failing case panics with the failing assertion's message
//! instead of a minimized counterexample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::{Rng, RngCore};

/// Everything `use proptest::prelude::*;` is expected to bring in.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Deterministic generator driving every strategy: an FNV-seeded
/// [`rand::rngs::StdRng`] from the workspace's rand shim (real proptest
/// likewise builds on the rand crate; all range/uniform sampling is
/// delegated there rather than re-implemented here).
#[derive(Clone, Debug)]
pub struct TestRng {
    inner: rand::rngs::StdRng,
}

impl TestRng {
    /// Seeds a generator from a test's name so every run of the suite sees
    /// the same cases (set `PROPTEST_RNG_SEED` to perturb all tests at once).
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Ok(extra) = std::env::var("PROPTEST_RNG_SEED") {
            for b in extra.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        TestRng {
            inner: rand::SeedableRng::seed_from_u64(h),
        }
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// How many times a `prop_filter` (or distinct-element collection) retries
/// before giving up on the whole test as over-constrained.
const MAX_LOCAL_REJECTS: usize = 500;

/// A generator of random values (the shim's version of
/// `proptest::strategy::Strategy`).
pub trait Strategy {
    /// Type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms every generated value through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, builds a second strategy from it,
    /// and draws from that.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Rejects generated values failing `f`, retrying up to a bounded number
    /// of times (`whence` names the constraint in the give-up message).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }
}

/// Strategy adaptor returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy adaptor returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy adaptor returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..MAX_LOCAL_REJECTS {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter {:?} rejected {MAX_LOCAL_REJECTS} candidates in a row; \
             strategy is over-constrained",
            self.whence
        );
    }
}

// Range strategies delegate to the rand shim's uniform samplers (one
// implementation of the subtle numeric code, shared by both shims).
impl<T: rand::SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: rand::SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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

/// A strategy producing a fixed value (proptest's `Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-domain strategy (proptest's `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws a value from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite and sign-symmetric — deliberately *not* raw bit patterns
        // (no NaN/inf surprises).
        rng.gen_range(-1.0e6..1.0e6)
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f64::arbitrary(rng) as f32
    }
}

/// Strategy for any [`Arbitrary`] type, created by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the canonical strategy for `T` (proptest's `any::<T>()`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies (mirroring `proptest::collection`).
pub mod collection {
    use super::{Range, RangeInclusive, Strategy, TestRng, MAX_LOCAL_REJECTS};
    use std::collections::BTreeSet;

    /// A size specification for generated collections.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.lo..=self.hi_inclusive)
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Vector of `elem`-generated values with length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with *distinct-element count* drawn
    /// from a [`SizeRange`] (duplicates are redrawn a bounded number of
    /// times, then the smaller set is returned, as in real proptest).
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut set = BTreeSet::new();
            let mut misses = 0usize;
            while set.len() < target && misses < MAX_LOCAL_REJECTS {
                if !set.insert(self.elem.generate(rng)) {
                    misses += 1;
                }
            }
            set
        }
    }

    /// Set of distinct `elem`-generated values with cardinality in `size`.
    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Per-test configuration (mirroring `proptest::test_runner::Config`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of passing cases required before the property is accepted.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The case count after applying the `PROPTEST_CASES` environment
    /// override (used by CI to keep suites fast).
    #[must_use]
    pub fn effective_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or(self.cases),
            Err(_) => self.cases,
        }
    }
}

/// Why a single test case did not pass (mirroring
/// `proptest::test_runner::TestCaseError`).
#[derive(Debug)]
pub enum TestCaseError {
    /// The case hit a `prop_assume!` that did not hold; draw a new one.
    Reject(String),
    /// The property is false for this case.
    Fail(String),
}

impl TestCaseError {
    /// Builds the failure variant.
    #[must_use]
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }

    /// Builds the rejection variant.
    #[must_use]
    pub fn reject(msg: String) -> Self {
        TestCaseError::Reject(msg)
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                format!("{} at {}:{}", format_args!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal. Like
/// `assert_eq!`, the operands are matched rather than `let`-bound, so
/// temporaries they borrow from (`a.owned().field()`) live until the
/// comparison is done.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), left, right
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), format_args!($($fmt)+), left, right
                );
            }
        }
    };
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left != *right,
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    left
                );
            }
        }
    };
}

/// Discards the current case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Defines property tests: each `fn name(pat in strategy, …) { body }`
/// becomes a `#[test]` running `body` over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr;
     $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let cases = config.effective_cases();
                let mut rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut passed: u32 = 0;
                let mut rejected: u32 = 0;
                let max_rejects = cases.saturating_mul(16).max(1024);
                // Build each strategy once (as real proptest does), not once
                // per case: a tuple of strategies is itself a strategy.
                let __strategies = ($($strategy,)+);
                while passed < cases {
                    let ($($pat,)+) = $crate::Strategy::generate(&__strategies, &mut rng);
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (move || { $body ::core::result::Result::Ok(()) })();
                    match outcome {
                        ::core::result::Result::Ok(()) => passed += 1,
                        ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                            rejected += 1;
                            assert!(
                                rejected <= max_rejects,
                                "property {} rejected {} cases (passed {}); \
                                 assumptions are over-constrained",
                                stringify!($name), rejected, passed
                            );
                        }
                        ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property {} failed after {} passing case(s): {}",
                                stringify!($name), passed, msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::collection;
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges_stay_in_bounds");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..9), &mut rng);
            assert!((3..9).contains(&v));
            let f = Strategy::generate(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn map_filter_flat_map_compose() {
        let strat = (1usize..5)
            .prop_flat_map(|n| collection::vec(0usize..n, 1..4))
            .prop_map(|v| v.len())
            .prop_filter("nonzero", |&l| l > 0);
        let mut rng = TestRng::deterministic("compose");
        for _ in 0..200 {
            let l = strat.generate(&mut rng);
            assert!((1..4).contains(&l));
        }
    }

    #[test]
    fn btree_set_is_distinct_and_bounded() {
        let strat = collection::btree_set(0usize..100, 2..6);
        let mut rng = TestRng::deterministic("btree");
        for _ in 0..100 {
            let s = strat.generate(&mut rng);
            assert!(s.len() < 6);
            assert!(s.iter().all(|&v| v < 100));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_runs_and_asserts(a in 0u64..100, (b, c) in (0u64..10, 0u64..10)) {
            prop_assume!(a % 7 != 0);
            prop_assert!(a < 100);
            prop_assert_eq!(b + c, c + b);
            prop_assert_ne!(a + 1, a);
        }
    }
}
