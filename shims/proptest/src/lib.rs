//! Offline shim of `proptest`: property-based testing by randomized
//! generation, without shrinking.
//!
//! The `proptest!` macro, `Strategy` combinators (`prop_map`,
//! `prop_recursive`, `prop_oneof!`, tuples, ranges, `Just`, `any`),
//! `collection::{vec, btree_map}`, and a small regex-subset string
//! generator are implemented; failing cases report their case number and
//! the deterministic per-test seed instead of shrinking to a minimal
//! input. Generation is deterministic per test name so CI failures
//! reproduce locally.

pub mod test_runner {
    //! Test configuration, RNG, and failure plumbing used by `proptest!`.

    use std::fmt;

    /// Subset of proptest's config honored by the shim: `cases` drives the
    /// iteration count; `max_shrink_iters` is accepted (shrinking is not
    /// implemented, so it is ignored).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per test.
        pub cases: u32,
        /// Ignored; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Config {
        /// Config with the given number of cases.
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_shrink_iters: 1024,
            }
        }
    }

    /// A failed or rejected test case.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property was falsified.
        Fail(String),
        /// The input was rejected (unused by the shim's macros).
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    /// SplitMix64 RNG: tiny, fast, and plenty for test-input generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Deterministic RNG derived from a test's full path, so each test
        /// sees a stable stream across runs and machines.
        pub fn deterministic_for(name: &str) -> Self {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for b in name.bytes() {
                state = (state ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform usize in `[lo, hi]`.
        pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
            lo + self.below((hi - lo + 1) as u64) as usize
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and its combinators.

    use super::test_runner::TestRng;
    use std::sync::Arc;

    /// A reusable recipe for generating values of one type.
    ///
    /// The shim's strategies generate; they do not shrink, so there is no
    /// `ValueTree` layer.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Build a recursive strategy: `self` generates leaves, and `f`
        /// wraps an inner strategy into branch cases. `depth` bounds
        /// recursion; the size/branch hints are accepted for parity and
        /// ignored.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut current = leaf.clone();
            for _ in 0..depth {
                let branch = f(current).boxed();
                current = Union::new(vec![leaf.clone(), branch]).boxed();
            }
            current
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// A type-erased, cheaply cloneable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always generates clones of one value.
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

    /// Uniform choice between several strategies (the `prop_oneof!` shape).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Choose uniformly among `options` (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "Union of zero strategies");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty)*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    range_strategy!(u8 u16 u32 u64 usize);

    macro_rules! signed_range_strategy {
        ($($t:ty)*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = hi.wrapping_sub(lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }

    signed_range_strategy!(i8 i16 i32 i64 isize);

    macro_rules! tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(S0: 0);
    tuple_strategy!(S0: 0, S1: 1);
    tuple_strategy!(S0: 0, S1: 1, S2: 2);
    tuple_strategy!(S0: 0, S1: 1, S2: 2, S3: 3);

    /// String strategies from a small regex subset: one atom — a `[...]`
    /// class, `.`, or `\PC` — followed by an optional `*`, `+`, `{m}`, or
    /// `{m,n}` quantifier. That covers every pattern in this workspace;
    /// anything else panics loudly.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let (alphabet, rest) = parse_atom(pattern);
        let (lo, hi) = parse_quantifier(rest, pattern);
        let len = rng.usize_in(lo, hi);
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }

    fn parse_atom(pattern: &str) -> (Vec<char>, &str) {
        if let Some(rest) = pattern.strip_prefix('[') {
            let close = rest
                .find(']')
                .unwrap_or_else(|| panic!("proptest shim: unclosed class in regex {pattern:?}"));
            (expand_class(&rest[..close]), &rest[close + 1..])
        } else if let Some(rest) = pattern.strip_prefix("\\PC") {
            // Any non-control character: printable ASCII plus a few
            // multi-byte scalars to exercise UTF-8 paths.
            let mut alphabet: Vec<char> = (0x20u8..0x7f).map(char::from).collect();
            alphabet.extend(['\u{e9}', '\u{3bb}', '\u{2603}', '\u{1f600}']);
            (alphabet, rest)
        } else if let Some(rest) = pattern.strip_prefix('.') {
            ((0x20u8..0x7f).map(char::from).collect(), rest)
        } else {
            panic!("proptest shim: unsupported regex {pattern:?}");
        }
    }

    fn expand_class(class: &str) -> Vec<char> {
        let chars: Vec<char> = class.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                let (lo, hi) = (chars[i] as u32, chars[i + 2] as u32);
                for c in lo..=hi {
                    if let Some(c) = char::from_u32(c) {
                        out.push(c);
                    }
                }
                i += 3;
            } else {
                out.push(chars[i]);
                i += 1;
            }
        }
        out
    }

    fn parse_quantifier(rest: &str, pattern: &str) -> (usize, usize) {
        match rest {
            "" => (1, 1),
            "*" => (0, 32),
            "+" => (1, 32),
            _ => {
                let inner = rest
                    .strip_prefix('{')
                    .and_then(|r| r.strip_suffix('}'))
                    .unwrap_or_else(|| {
                        panic!("proptest shim: unsupported quantifier in regex {pattern:?}")
                    });
                let parse = |s: &str| {
                    s.parse::<usize>().unwrap_or_else(|_| {
                        panic!("proptest shim: bad quantifier bound in regex {pattern:?}")
                    })
                };
                match inner.split_once(',') {
                    Some((lo, hi)) => (parse(lo), parse(hi)),
                    None => {
                        let n = parse(inner);
                        (n, n)
                    }
                }
            }
        }
    }
}

pub mod arbitrary {
    //! The `Arbitrary` trait and `any::<T>()`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Generate one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The canonical strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<A>(PhantomData<A>);

    impl<A> Clone for Any<A> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty)*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // Bias 1-in-8 draws toward boundary values: integer
                    // edge cases dominate codec bugs.
                    if rng.below(8) == 0 {
                        match rng.below(4) {
                            0 => 0 as $t,
                            1 => <$t>::MAX,
                            2 => <$t>::MIN,
                            _ => 1 as $t,
                        }
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    int_arbitrary!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for i128 {
        fn arbitrary(rng: &mut TestRng) -> i128 {
            u128::arbitrary(rng) as i128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            // Mostly ASCII, occasionally an arbitrary scalar value.
            if rng.below(4) == 0 {
                char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}')
            } else {
                char::from(0x20 + rng.below(0x5f) as u8)
            }
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl Arbitrary for super::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> super::sample::Index {
            super::sample::Index::from_raw(rng.next_u64())
        }
    }
}

pub mod sample {
    //! Sampling helpers.

    /// An index into a collection whose length is unknown at generation
    /// time; resolve with [`Index::index`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        pub(crate) fn from_raw(raw: u64) -> Self {
            Index(raw)
        }

        /// Resolve against a collection of length `len` (must be nonzero).
        pub fn index(&self, len: usize) -> usize {
            assert!(len != 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::collections::BTreeMap;

    /// Length bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap` with between `size` entries attempted
    /// (duplicate keys collapse, as in real proptest).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    /// See [`btree_map`].
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

/// Namespace mirror so `prop::sample::Index` and `prop::collection::vec`
/// resolve after `use proptest::prelude::*`.
pub mod prop {
    pub use super::collection;
    pub use super::sample;
}

pub mod prelude {
    //! Everything a property test conventionally imports.

    pub use super::arbitrary::any;
    pub use super::prop;
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::Config as ProptestConfig;
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

// Re-exports used by the generated code.
#[doc(hidden)]
pub use arbitrary::any as __any;

/// Define property tests: an optional `#![proptest_config(..)]` followed by
/// `#[test] fn name(pat in strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr;) => {};
    (
        config = $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $config;
            let __test_path = concat!(module_path!(), "::", stringify!($name));
            let mut __rng = $crate::test_runner::TestRng::deterministic_for(__test_path);
            for __case in 0..__config.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strategy), &mut __rng);)+
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__e) = __outcome {
                    panic!(
                        "proptest case {}/{} failed for {}: {}",
                        __case + 1,
                        __config.cases,
                        __test_path,
                        __e
                    );
                }
            }
        }
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
}

/// Uniform choice among several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Assert inside a `proptest!` body; failure fails the case, not the
/// process.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                __l,
                __r
            )));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{}` != `{}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Leaf(u8),
        Node(Vec<Tree>),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respected(a in 3usize..10, b in 1u64..=4, s in "[a-z]{1,8}") {
            prop_assert!((3..10).contains(&a));
            prop_assert!((1..=4).contains(&b));
            prop_assert!(!s.is_empty() && s.len() <= 8);
            prop_assert!(s.bytes().all(|c| c.is_ascii_lowercase()));
        }

        #[test]
        fn combinators_compose(v in prop::collection::vec(any::<u8>(), 0..5), pair in (0u8..3, "[0-9]{2}")) {
            prop_assert!(v.len() < 5);
            prop_assert!(pair.0 < 3);
            prop_assert_eq!(pair.1.len(), 2);
        }

        #[test]
        fn recursion_bounded(t in arb_tree()) {
            fn depth(t: &Tree) -> usize {
                match t {
                    Tree::Leaf(_) => 1,
                    Tree::Node(children) => {
                        1 + children.iter().map(depth).max().unwrap_or(0)
                    }
                }
            }
            prop_assert!(depth(&t) <= 4);
        }
    }

    fn arb_tree() -> impl Strategy<Value = Tree> {
        let leaf = any::<u8>().prop_map(Tree::Leaf);
        leaf.prop_recursive(3, 16, 4, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(Tree::Node)
        })
    }
}
