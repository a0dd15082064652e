//! # fusion-ptest
//!
//! A compact, deterministic, dependency-free stand-in for the parts of the
//! `proptest` crate this workspace uses. The workspace renames this crate
//! to `proptest` (see the root `Cargo.toml`), so test files keep the
//! idiomatic `use proptest::prelude::*;` while building in an environment
//! with no registry access.
//!
//! Differences from upstream proptest, by design:
//!
//! * **No shrinking.** A failing case reports the test name, case index,
//!   and derived seed; re-running is deterministic, so the case is
//!   reproducible but not minimized.
//! * **Sampling, not exploration.** Strategies are plain samplers over a
//!   seeded RNG; `prop_recursive` bounds depth by construction.
//! * **Determinism.** Each `proptest!` test derives its RNG stream from a
//!   hash of the test name, so runs are stable across machines. Set
//!   `FUSION_PTEST_SEED` to perturb the whole suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use fusion_rng::rngs::StdRng;
use fusion_rng::{Rng, RngCore, SampleUniform, SeedableRng};

// ---------------------------------------------------------------------------
// RNG plumbing
// ---------------------------------------------------------------------------

/// The RNG handed to strategies during sampling.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Derive a fresh stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.0.gen_range(0..n)
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A sampler for values of type [`Strategy::Value`].
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform produced values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Build a recursive strategy: `self` is the leaf case and `recurse`
    /// wraps an inner strategy into one recursion level. `depth` bounds
    /// nesting; `_desired_size` and `_expected_branch` are accepted for
    /// upstream signature compatibility and ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf: BoxedStrategy<Self::Value> = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let rec = recurse(cur).boxed();
            // At every level, fall back to the leaf half the time so
            // generated structures cover all depths up to `depth`.
            cur = Union::new(vec![leaf.clone(), rec]).boxed();
        }
        cur
    }

    /// Erase the concrete strategy type behind a cheap, clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

trait DynStrategy<V> {
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased, reference-counted strategy handle (clonable, so it can
/// be captured several times inside `prop_recursive` closures).
pub struct BoxedStrategy<V> {
    inner: Rc<dyn DynStrategy<V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        self.inner.sample_dyn(rng)
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
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
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-valued strategies (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Build a union; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.arms.len());
        self.arms[idx].sample(rng)
    }
}

// Integer ranges are strategies.
impl<T: SampleUniform + Copy + 'static> Strategy for Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.0.gen_range(self.start..self.end)
    }
}

// Tuples of strategies are strategies.
impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.sample(rng),
            self.1.sample(rng),
            self.2.sample(rng),
            self.3.sample(rng),
        )
    }
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Sample an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy produced by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A length specification: an exact size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for vectors of `element` values with length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.hi - self.size.lo;
            let len = if span <= 1 {
                self.size.lo
            } else {
                self.size.lo + rng.below(span)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Vector strategy constructor; `size` may be a `usize` or a `Range<usize>`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of cases that must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` failed; the case is discarded, not failed.
    Reject(String),
    /// A `prop_assert*!` failed; the whole test fails.
    Fail(String),
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Construct a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drive one `proptest!` test: run `config.cases` passing cases, retrying
/// rejected cases up to a global budget. Deterministic per test name.
pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let suite_seed = std::env::var("FUSION_PTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let base = fnv1a(name.as_bytes()) ^ suite_seed;
    let mut passed = 0u32;
    let mut rejected = 0u64;
    let max_rejects = (config.cases as u64).saturating_mul(64).max(1024);
    let mut iteration = 0u64;
    while passed < config.cases {
        let seed = base.wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        iteration += 1;
        let mut rng = TestRng::from_seed(seed);
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "proptest '{name}': too many rejected cases \
                         ({rejected} rejects for {passed}/{} passes)",
                        config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{name}' failed at case {passed} (seed {seed:#x}):\n{msg}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Define property tests. Supports the upstream surface used here:
/// an optional `#![proptest_config(...)]` header followed by one or more
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_proptest(config, stringify!($name), |__ptest_rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), __ptest_rng);)+
                #[allow(unreachable_code)]
                let mut __ptest_case =
                    || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                __ptest_case()
            });
        }
    )*};
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            __pa == __pb,
            "assertion failed: `{:?} == {:?}`",
            __pa,
            __pb
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            __pa == __pb,
            "assertion failed: `{:?} == {:?}`: {}",
            __pa,
            __pb,
            format!($($fmt)+)
        );
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            __pa != __pb,
            "assertion failed: `{:?} != {:?}`",
            __pa,
            __pb
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            __pa != __pb,
            "assertion failed: `{:?} != {:?}`: {}",
            __pa,
            __pb,
            format!($($fmt)+)
        );
    }};
}

/// Discard the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// Uniform choice among strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// The everything-you-need import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Leaf(i64),
        Node(Box<Tree>, Box<Tree>),
    }

    fn depth(t: &Tree) -> u32 {
        match t {
            Tree::Leaf(_) => 0,
            Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
        }
    }

    #[test]
    fn recursion_depth_is_bounded_and_varied() {
        let strat = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = crate::TestRng::from_seed(1);
        let mut max_seen = 0;
        for _ in 0..500 {
            let t = strat.sample(&mut rng);
            let d = depth(&t);
            assert!(d <= 3, "depth {d} exceeds bound");
            max_seen = max_seen.max(d);
        }
        assert!(
            max_seen >= 2,
            "recursion never fired (max depth {max_seen})"
        );
    }

    #[test]
    fn vec_sizes_respect_range() {
        let strat = prop::collection::vec(0usize..5, 2..4);
        let mut rng = crate::TestRng::from_seed(2);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!(v.len() == 2 || v.len() == 3);
            assert!(v.iter().all(|&x| x < 5));
        }
        let exact = prop::collection::vec(any::<bool>(), 3);
        assert_eq!(exact.sample(&mut rng).len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_pipeline_works(x in 0u64..100, flip in any::<bool>(), v in prop::collection::vec(0i64..9, 0..6)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(x.min(99), x);
            prop_assert_ne!(flip, !flip);
            prop_assert_ne!(x + 1, x, "successor differs from {}", x);
            prop_assert!(v.len() < 6);
        }

        #[test]
        fn oneof_hits_every_arm(tag in prop_oneof![Just(0u8), Just(1u8), 2u8..4]) {
            prop_assert!(tag < 4);
        }
    }

    #[test]
    fn runs_are_deterministic_per_name() {
        let strat = (0u64..1_000_000).boxed();
        let mut a = crate::TestRng::from_seed(99);
        let mut b = crate::TestRng::from_seed(99);
        for _ in 0..64 {
            assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
        }
    }
}
