//! Offline shim for the [`proptest`](https://docs.rs/proptest) crate.
//!
//! The build environment has no crates.io access, so the workspace vendors a
//! compact property-testing engine that is API-compatible with the subset of
//! proptest used by strato's test suites:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]` support),
//! * [`strategy::Strategy`] with `prop_map` / `boxed`, tuple strategies,
//!   integer-range strategies, [`strategy::Just`], [`prop_oneof!`] unions,
//!   and char-class string patterns (`"[a-z]{0,12}"`),
//! * [`arbitrary::any`] for primitives (with a bias toward edge values),
//! * [`collection::vec`] / [`collection::btree_set`] / [`option::of`],
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   [`prop_assume!`], [`test_runner::TestCaseError`] and
//!   [`test_runner::Config`] (`ProptestConfig`).
//!
//! Unlike real proptest there is **no shrinking**: a failing case reports
//! the generated input verbatim. Generation is deterministic per test
//! (fixed seed), so failures reproduce across runs.

#![forbid(unsafe_code)]

/// Deterministic test-case generation and execution.
pub mod test_runner {
    use std::fmt::Debug;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    use crate::strategy::Strategy;

    /// Deterministic RNG (SplitMix64) driving all value generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from an explicit seed.
        pub fn seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() as u128 % n as u128) as usize
        }

        /// Uniform value in `[lo, hi]` (inclusive), as i128 arithmetic.
        pub fn in_range_i128(&mut self, lo: i128, hi: i128) -> i128 {
            let span = (hi - lo + 1) as u128;
            lo + (((self.next_u64() as u128) << 64 | self.next_u64() as u128) % span) as i128
        }
    }

    /// Runner configuration; exported as `ProptestConfig` from the prelude.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of accepted (non-rejected) cases each test must pass.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property was violated; the test fails.
        Fail(String),
        /// The case did not satisfy an assumption; it is skipped.
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection (filtered case) with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Shorthand used by the `prop_assert*` macros.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Executes `config.cases` generated cases of `strategy` against `test`.
    ///
    /// Panics (failing the surrounding `#[test]`) on the first violated
    /// property, printing the generated input. Rejected cases (via
    /// `prop_assume!`) do not count toward the case budget; an excessive
    /// rejection rate is itself an error, like in real proptest.
    pub fn run<S, F>(config: &Config, strategy: &S, test: F)
    where
        S: Strategy,
        S::Value: Clone + Debug,
        F: Fn(S::Value) -> TestCaseResult,
    {
        // Fixed seed: deterministic, reproducible test streams.
        let mut rng = TestRng::seed(0x5eed_0f57_1a70 ^ config.cases as u64);
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        while accepted < config.cases {
            if rejected > config.cases.saturating_mul(16).max(1024) {
                panic!(
                    "proptest shim: too many rejected cases \
                     ({rejected} rejects for {accepted} accepted)"
                );
            }
            let value = strategy.generate(&mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| test(value.clone())));
            match outcome {
                Ok(Ok(())) => accepted += 1,
                Ok(Err(TestCaseError::Reject(_))) => rejected += 1,
                Ok(Err(TestCaseError::Fail(msg))) => {
                    panic!(
                        "proptest case #{accepted} failed: {msg}\
                         \n  input: {value:?}"
                    );
                }
                Err(cause) => {
                    eprintln!("proptest case #{accepted} panicked\n  input: {value:?}");
                    resume_unwind(cause);
                }
            }
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among several strategies; built by `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over the given non-empty arm list.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    rng.in_range_i128(self.start as i128, self.end as i128 - 1) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    rng.in_range_i128(*self.start() as i128, *self.end() as i128) as $t
                }
            }
        )*};
    }

    int_range_strategies!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! tuple_strategies {
        ($(($($s:ident.$idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

/// `any::<T>()` strategies for primitive types.
pub mod arbitrary {
    use std::marker::PhantomData;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`, spanning its whole domain with a
    /// mild bias toward edge values (zero, extremes, NaN for floats).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // 1-in-8 bias toward edge values, like real proptest's
                    // preference for special cases.
                    if rng.next_u64() % 8 == 0 {
                        const EDGES: [$t; 5] =
                            [0, 1, <$t>::MAX, <$t>::MIN, <$t>::MAX / 2];
                        EDGES[rng.below(EDGES.len())]
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    arbitrary_ints!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            if rng.next_u64() % 8 == 0 {
                const EDGES: [f64; 7] = [
                    0.0,
                    -0.0,
                    1.0,
                    -1.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                ];
                EDGES[rng.below(EDGES.len())]
            } else {
                f64::from_bits(rng.next_u64())
            }
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f64::arbitrary(rng) as f32
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            char::from_u32(rng.next_u64() as u32 % 0xD800).unwrap_or('\u{FFFD}')
        }
    }
}

/// Size specifications for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut test_runner::TestRng) -> usize {
        debug_assert!(self.lo < self.hi);
        self.lo + rng.below(self.hi - self.lo)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Collection strategies (`vec`, `btree_set`).
pub mod collection {
    use std::collections::BTreeSet;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use crate::SizeRange;

    /// Generates `Vec`s whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates `BTreeSet`s with *up to* `size` elements (duplicates from
    /// a small element domain may reduce the count, as in real proptest).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategies over `Option`.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` about a quarter of the time, otherwise
    /// `Some(inner)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() % 4 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// String generation from char-class patterns.
pub mod string {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `&str` patterns are strategies for `String`, like in real proptest.
    ///
    /// Supported grammar: a sequence of atoms, each either a literal char
    /// or a char class `[a-z0-9 _]`, optionally repeated with `{n}` or
    /// `{lo,hi}`. This covers the patterns strato's tests use; anything
    /// unparseable is generated as the literal pattern text.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            generate_pattern(self, rng)
        }
    }

    fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            // Parse one atom: a char class or a literal char.
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = match chars[i + 1..].iter().position(|&c| c == ']') {
                    Some(off) => i + 1 + off,
                    None => {
                        // Unparseable: emit the rest verbatim.
                        out.extend(&chars[i..]);
                        return out;
                    }
                };
                let set = expand_class(&chars[i + 1..close]);
                i = close + 1;
                set
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            // Parse an optional {n} / {lo,hi} repetition.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = match chars[i + 1..].iter().position(|&c| c == '}') {
                    Some(off) => i + 1 + off,
                    None => {
                        out.extend(&chars[i..]);
                        return out;
                    }
                };
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                parse_reps(&body).unwrap_or((1, 1))
            } else {
                (1, 1)
            };
            if alphabet.is_empty() {
                continue;
            }
            let count = lo + rng.below(hi - lo + 1);
            for _ in 0..count {
                out.push(alphabet[rng.below(alphabet.len())]);
            }
        }
        out
    }

    /// Expands the interior of a `[...]` class into its member chars.
    fn expand_class(body: &[char]) -> Vec<char> {
        let mut set = Vec::new();
        let mut j = 0;
        while j < body.len() {
            if j + 2 < body.len() && body[j + 1] == '-' {
                let (lo, hi) = (body[j] as u32, body[j + 2] as u32);
                for c in lo..=hi {
                    if let Some(c) = char::from_u32(c) {
                        set.push(c);
                    }
                }
                j += 3;
            } else {
                set.push(body[j]);
                j += 1;
            }
        }
        set
    }

    fn parse_reps(body: &str) -> Option<(usize, usize)> {
        match body.split_once(',') {
            Some((lo, hi)) => {
                let lo = lo.trim().parse().ok()?;
                let hi = hi.trim().parse().ok()?;
                (lo <= hi).then_some((lo, hi))
            }
            None => {
                let n = body.trim().parse().ok()?;
                Some((n, n))
            }
        }
    }
}

/// Everything tests normally import, via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{
        Config as ProptestConfig, TestCaseError, TestCaseResult, TestRng,
    };
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Path-style access to strategy modules (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::{collection, option, string};
    }
}

/// Declares property tests: `proptest! { #[test] fn f(x in strat) {..} }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]; munches one test fn at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($strat,)+);
            $crate::test_runner::run(&config, &strategy, |($($arg,)+)| {
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Like `assert!`, but fails only the current generated case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Like `assert_eq!`, but fails only the current generated case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
}

/// Like `assert_ne!`, but fails only the current generated case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{}` != `{}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in -5i64..5, y in 1u32..=9, n in 0..4usize) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!((1..=9).contains(&y));
            prop_assert!(n < 4);
        }

        #[test]
        fn vec_sizes_and_maps(v in prop::collection::vec(0..10i32, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| (0..10).contains(&e)));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1i64), 10i64..20, Just(99i64)]) {
            prop_assert!(v == 1 || (10..20).contains(&v) || v == 99);
        }

        #[test]
        fn string_patterns_match_class(s in "[a-c]{2,4}") {
            prop_assert!((2..=4).contains(&s.chars().count()), "len of {s:?}");
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn assume_filters(x in 0..100i32) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn tuples_and_options(
            (a, b) in (0..5usize, any::<bool>()),
            o in prop::option::of(1..3i32),
        ) {
            prop_assert!(a < 5);
            let _ = b;
            if let Some(i) = o {
                prop_assert!((1..3).contains(&i));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]

        #[test]
        fn config_is_honored(_x in 0..10i32) {
            // Runs exactly 17 cases; nothing to assert beyond completion.
        }
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failing_property_panics() {
        crate::test_runner::run(&ProptestConfig::with_cases(8), &(0..1i32,), |(x,)| {
            prop_assert!(x > 100);
            Ok(())
        });
    }

    #[test]
    fn btree_set_generates_ordered_unique() {
        let strat = crate::collection::btree_set(0u32..50, 0..10);
        let mut rng = TestRng::seed(7);
        for _ in 0..50 {
            let s = crate::strategy::Strategy::generate(&strat, &mut rng);
            assert!(s.len() < 10);
            assert!(s.iter().all(|&e| e < 50));
        }
    }
}
